package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation directives recognized by the rules. An annotation is a
// comment line of the form "//async:NAME" or "//async:NAME rationale".
const (
	annotDeterministic = "deterministic"
	annotSchedOnly     = "sched-only"
	annotSchedRoot     = "sched-root"
	annotPool          = "pool"
	annotMeasured      = "measured"
)

const annotPrefix = "//async:"

var knownAnnots = map[string]bool{
	annotDeterministic: true, annotSchedOnly: true, annotSchedRoot: true,
	annotPool: true, annotMeasured: true,
}

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
func packageMarked(p *Package, name string) bool {
	for _, f := range p.Files {
		if groupHas(f.Doc, name) {
			return true
		}
	}
	return false
}

// annotations reports every //async: line whose directive is not one of
// the five: only an exact name binds, so a misspelt directive would
// drop its contract without a word.
func (c *checker) annotations(p *Package) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if name := parseAnnotation(cm.Text); strings.HasPrefix(cm.Text, annotPrefix) && !knownAnnots[name] {
					c.reportf(cm.Pos(), "unknown %s directive %q: the directives are deterministic, "+
						"sched-only, sched-root, measured and pool", annotPrefix, name)
				}
			}
		}
	}
}
