package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) { linttest.Run(t, lint.DeterminismAnalyzer, "determinism") }
func TestSchedOnly(t *testing.T)   { linttest.Run(t, lint.SchedOnlyAnalyzer, "schedonly") }

// TestSuite pins asynclint's analyzer set: two analyzers, stable names
// (scripts and CI grep for them).
func TestSuite(t *testing.T) {
	want := []string{"determinism", "schedonly"}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if err := a.Flags.Parse(nil); err != nil {
			t.Errorf("analyzer %q flags: %v", a.Name, err)
		}
	}
}
