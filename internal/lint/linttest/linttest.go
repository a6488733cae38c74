// Package linttest is a self-contained analysistest-style harness for
// the asynclint analyzers. golang.org/x/tools/go/analysis/analysistest
// is not vendored with the toolchain, so this package re-implements the
// part the suite needs: load a testdata package from source, run one
// analyzer over it, and compare its diagnostics against the
// `// want "regexp"` comments seeded on the offending lines.
//
// Testdata packages may import only the standard library, resolved
// through the compiler's export data: the analyzers key on annotations
// and standard-library calls, so no testdata needs this module's own
// packages.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads testdata/<dir> as one package, applies the analyzer, and
// fails the test on any mismatch between reported diagnostics and the
// `// want` expectations in the sources.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	root := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(root, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: parse %s: %v", name, err)
		}
		files = append(files, f)
		names = append(names, name)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no Go files in %s", root)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := &types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("lintexample/"+dir, fset, files, info)
	if err != nil {
		t.Fatalf("linttest: type-check %s: %v", root, err)
	}

	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:          a,
		Fset:              fset,
		Files:             files,
		Pkg:               pkg,
		TypesInfo:         info,
		TypesSizes:        types.SizesFor("gc", "amd64"),
		ResultOf:          map[*analysis.Analyzer]any{},
		Report:            func(d analysis.Diagnostic) { got = append(got, d) },
		ReadFile:          os.ReadFile,
		ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
		ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
		ExportObjectFact:  func(types.Object, analysis.Fact) {},
		ExportPackageFact: func(analysis.Fact) {},
		AllObjectFacts:    func() []analysis.ObjectFact { return nil },
		AllPackageFacts:   func() []analysis.PackageFact { return nil },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("linttest: analyzer %s: %v", a.Name, err)
	}
	compare(t, fset, files, names, got)
}

// expectation is one `// want "re"` on a source line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func compare(t *testing.T, fset *token.FileSet, files []*ast.File, names []string, got []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := quotedRE.FindAllString(m[1], -1)
				if len(quoted) == 0 {
					t.Errorf("%s:%d: malformed // want comment (no quoted regexp)", pos.Filename, pos.Line)
					continue
				}
				for _, q := range quoted {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s:%d: bad // want pattern %s: %v", pos.Filename, pos.Line, q, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad // want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
