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
	annotPool          = "pool"
	annotMeasured      = "measured"
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

// annotLines returns the file lines carrying the annotation — the
// lookup for the statement-level //async:pool, which Go's AST does not
// attach to statements.
func annotLines(fset *token.FileSet, f *ast.File, name string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if parseAnnotation(c.Text) == name {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
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
