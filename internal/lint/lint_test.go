package lint_test

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint"
)

func TestDeterminism(t *testing.T) { checkFixture(t, "./testdata/determinism") }
func TestSchedOnly(t *testing.T)   { checkFixture(t, "./testdata/schedonly") }

// TestSchedOnlyAcrossPackages loads plain, which refers to sched-only
// code that its import sched declares: the sched-only set spans every
// package loaded.
func TestSchedOnlyAcrossPackages(t *testing.T) { checkFixture(t, "./testdata/crosspkg/plain") }

// expectation is one `// want "re"` on a source line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// checkFixture loads the testdata package at pattern with the packages
// of this module it imports, runs every rule over them, and fails the
// test on any mismatch between the diagnostics and the
// `// want "regexp"` comments seeded on the offending lines.
func checkFixture(t *testing.T, pattern string) {
	t.Helper()
	fset, pkgs, err := lint.Load(pattern)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, p := range pkgs {
		for _, f := range p.Files {
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
	}
	if len(wants) == 0 {
		t.Fatalf("%s: no // want comments", pattern)
	}
	for _, d := range lint.Check(fset, pkgs) {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
