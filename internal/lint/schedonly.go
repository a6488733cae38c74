package lint

import (
	"go/ast"
	"go/types"
)

// schedOnly enforces the scheduling-goroutine contract: a function or
// method annotated //async:sched-only (on its declaration, or on its
// method in an interface) may only be referenced from other sched-only
// functions, from declared //async:sched-root scheduling-loop entry
// points, or from //async:measured contexts (the live executor's pool
// tasks, which serialize their sched-only calls under the engine mutex
// instead of on a single goroutine). The walk is reference-based, not
// call-based, so a sched-only method escaping as a function value from
// non-scheduling code is caught too. Function literals are their own
// (non-sched) context: a closure can escape to another goroutine, so it
// never inherits its enclosing function's clearance — measured or
// otherwise.
//
// The packages share one importer, so a function is one types.Object
// wherever it is referenced, and the annotations of every package form
// one sched-only set.
func (c *checker) schedOnly(pkgs []*Package) {
	schedOnly := map[types.Object]bool{}
	roots := map[types.Object]bool{}

	// Pass 1: collect annotations from function declarations and
	// interface method declarations.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.Info.Defs[d.Name]
					if obj == nil {
						continue
					}
					if groupHas(d.Doc, annotSchedOnly) {
						schedOnly[obj] = true
					}
					if groupHas(d.Doc, annotSchedRoot) || groupHas(d.Doc, annotMeasured) {
						roots[obj] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, m := range it.Methods.List {
							if !groupHas(m.Doc, annotSchedOnly) && !groupHas(m.Comment, annotSchedOnly) {
								continue
							}
							for _, name := range m.Names {
								if obj := p.Info.Defs[name]; obj != nil {
									schedOnly[obj] = true
								}
							}
						}
					}
				}
			}
		}
	}

	isSchedOnly := func(obj types.Object) bool {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // normalize generic instantiations
		}
		return schedOnly[obj]
	}

	// Pass 2: verify every reference. walk carries the context a
	// statement executes in: the innermost function literal, or else the
	// enclosing declaration.
	type ctx struct {
		cleared bool   // sched-only or sched-root: may reference sched-only code
		name    string // for diagnostics
	}
	for _, p := range pkgs {
		var walk func(n ast.Node, x ctx)
		walk = func(n ast.Node, x ctx) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					walk(n.Body, ctx{cleared: false, name: x.name + " (func literal)"})
					return false
				case *ast.Ident:
					obj := p.Info.Uses[n]
					if obj == nil || !isSchedOnly(obj) {
						return true
					}
					if !x.cleared {
						c.reportf(n.Pos(), "%s is //async:sched-only but is referenced from %s, "+
							"which is neither sched-only, a declared //async:sched-root scheduling-loop entry point, "+
							"nor an //async:measured context",
							obj.Name(), x.name)
					}
				}
				return true
			})
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				obj := p.Info.Defs[d.Name]
				walk(d.Body, ctx{cleared: schedOnly[obj] || roots[obj], name: d.Name.Name})
			}
		}
	}
}
