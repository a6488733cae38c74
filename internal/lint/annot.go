package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Annotation directives recognized by the suite. An annotation is a
// comment line of the form "//async:NAME" or "//async:NAME rationale".
const (
	annotDeterministic = "deterministic"
	annotSchedOnly     = "sched-only"
	annotSchedRoot     = "sched-root"
	annotAtomic        = "atomic"
	annotPool          = "pool"
	annotMeasured      = "measured"
	annotTraced        = "traced"
	annotUnorderedOK   = "unordered-ok"
)

const annotPrefix = "//async:"

// parseAnnotation returns the directive name of one comment line, or ""
// when the line is not an //async: annotation. Trailing prose after the
// directive ("//async:pool the executor's dispatch") is rationale and is
// ignored.
func parseAnnotation(text string) string {
	rest, ok := strings.CutPrefix(text, annotPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// groupHas reports whether the comment group contains the annotation.
func groupHas(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if parseAnnotation(c.Text) == name {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file position sits in a _test.go file.
// The contracts bind production code: tests deliberately drive
// sched-only machinery from a single test goroutine and measure wall
// time, so analyzer checks skip them.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// annotLines indexes, per annotation name, the file lines carrying it —
// the lookup used for statement-level annotations (//async:pool,
// //async:unordered-ok), which Go's AST does not attach to statements.
type annotLines map[string]map[int]bool

// fileAnnotLines scans every comment in the file.
func fileAnnotLines(fset *token.FileSet, f *ast.File) annotLines {
	idx := annotLines{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name := parseAnnotation(c.Text)
			if name == "" {
				continue
			}
			if idx[name] == nil {
				idx[name] = map[int]bool{}
			}
			idx[name][fset.Position(c.Pos()).Line] = true
		}
	}
	return idx
}

// at reports whether the annotation appears on the statement's own line
// or the line directly above it.
func (a annotLines) at(fset *token.FileSet, name string, pos token.Pos) bool {
	line := fset.Position(pos).Line
	return a[name][line] || a[name][line-1]
}

// packageMarked reports whether any file's package doc comment carries
// the annotation (e.g. //async:deterministic).
func packageMarked(pass *analysis.Pass, name string) bool {
	for _, f := range pass.Files {
		if groupHas(f.Doc, name) {
			return true
		}
	}
	return false
}

// pkgFunc returns the *types.Func-like object a call or reference
// resolves to, unwrapping selectors; nil for unresolvable (dynamic)
// callees.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeIdent(e.X)
	case *ast.IndexListExpr:
		return calleeIdent(e.X)
	}
	return nil
}
