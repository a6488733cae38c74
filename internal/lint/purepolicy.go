package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// PurePolicyAnalyzer enforces the purity contract on adaptive staleness
// policies: a type implementing adapt.Policy must be a pure function of
// the Signals it is handed. That is what lets one Policy value drive
// many runs and both executors deterministically, and what makes the
// bound trajectory replayable. Concretely, policy methods must not
//
//   - write to receiver state,
//   - write to package-level variables (their own package's or any
//     imported package's),
//   - read the wall clock or global randomness, or perform I/O
//     (os / io / bufio / net calls),
//   - spawn goroutines.
var PurePolicyAnalyzer = &analysis.Analyzer{
	Name: "purepolicy",
	Doc:  "check that adapt.Policy implementations are pure functions of their Signals",
	Run:  runPurePolicy,
}

// adaptPkgSuffix locates the Policy interface: the analyzer looks for
// it in the package under analysis when that package is internal/adapt
// itself, otherwise in any direct import with this path suffix.
const adaptPkgSuffix = "internal/adapt"

// impureCallPkgs are packages a pure policy has no business calling
// into at all.
var impureCallPkgs = map[string]bool{
	"os": true, "io": true, "io/ioutil": true, "bufio": true,
	"net": true, "net/http": true, "syscall": true,
}

func runPurePolicy(pass *analysis.Pass) (any, error) {
	iface := findPolicyInterface(pass)
	if iface == nil {
		return nil, nil
	}

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Recv == nil || d.Body == nil || len(d.Recv.List) == 0 {
				continue
			}
			recvType := pass.TypesInfo.TypeOf(d.Recv.List[0].Type)
			if recvType == nil || !implementsPolicy(recvType, iface) {
				continue
			}
			var recvObj types.Object
			if names := d.Recv.List[0].Names; len(names) > 0 {
				recvObj = pass.TypesInfo.Defs[names[0]]
			}
			checkPolicyMethod(pass, d, recvObj)
		}
	}
	return nil, nil
}

// findPolicyInterface resolves adapt.Policy for this package, or nil
// when the package neither is nor imports internal/adapt.
func findPolicyInterface(pass *analysis.Pass) *types.Interface {
	lookup := func(pkg *types.Package) *types.Interface {
		if obj, ok := pkg.Scope().Lookup("Policy").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
		return nil
	}
	if strings.HasSuffix(pass.Pkg.Path(), adaptPkgSuffix) {
		return lookup(pass.Pkg)
	}
	for _, imp := range pass.Pkg.Imports() {
		if strings.HasSuffix(imp.Path(), adaptPkgSuffix) {
			return lookup(imp)
		}
	}
	return nil
}

func implementsPolicy(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

func checkPolicyMethod(pass *analysis.Pass, d *ast.FuncDecl, recvObj types.Object) {
	method := d.Name.Name
	report := func(pos ast.Node, format string, args ...any) {
		args = append([]any{method}, args...)
		pass.Reportf(pos.Pos(), "impure adapt.Policy method %s: "+format, args...)
	}
	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkPolicyWrite(pass, lhs, recvObj, report)
			}
		case *ast.IncDecStmt:
			checkPolicyWrite(pass, n.X, recvObj, report)
		case *ast.GoStmt:
			report(n, "spawns a goroutine")
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.Uses[n.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch path := fn.Pkg().Path(); {
			case path == "time" && wallClockFuncs[fn.Name()]:
				report(n, "reads the wall clock via time.%s", fn.Name())
			case (path == "math/rand" || path == "math/rand/v2") && !globalRandAllowed[fn.Name()]:
				report(n, "draws global randomness via %s.%s", fn.Pkg().Name(), fn.Name())
			case impureCallPkgs[path]:
				report(n, "performs I/O via %s.%s", fn.Pkg().Name(), fn.Name())
			}
		}
		return true
	})
}

// checkPolicyWrite flags an assignment whose target is receiver state or
// a package-level variable.
func checkPolicyWrite(pass *analysis.Pass, lhs ast.Expr, recvObj types.Object, report func(ast.Node, string, ...any)) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return // new definition (:=)
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			report(e, "writes package-level variable %s", v.Name())
		}
		if recvObj != nil && obj == recvObj {
			report(e, "writes the receiver")
		}
	case *ast.SelectorExpr:
		// Writes through the receiver: p.field = ..., p.a.b = ...
		if field, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			if field.IsField() && rootIsReceiver(pass, e.X, recvObj) {
				report(e, "writes receiver field %s", field.Name())
				return
			}
			if !field.IsField() && field.Pkg() != nil && field.Parent() == field.Pkg().Scope() {
				report(e, "writes package-level variable %s.%s", field.Pkg().Name(), field.Name())
			}
		}
	case *ast.StarExpr:
		// *p = ... where p is the pointer receiver.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && recvObj != nil && pass.TypesInfo.Uses[id] == recvObj {
			report(e, "writes through the pointer receiver")
		}
	case *ast.IndexExpr:
		// p.slice[i] = ... — a write into receiver-reachable state.
		if rootIsReceiver(pass, e.X, recvObj) {
			report(e, "writes into receiver-reachable state")
		}
	}
}

// rootIsReceiver walks selector/index chains to their base identifier
// and reports whether it is the method receiver.
func rootIsReceiver(pass *analysis.Pass, e ast.Expr, recvObj types.Object) bool {
	if recvObj == nil {
		return false
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x] == recvObj
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}
