package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestRunWorkloadsSeries pins the suite's series plumbing: with
// SeriesPath set, every async workload writes a valid CSV series file
// (workload spliced before the extension), and the same sweep re-run
// unsampled reports identical stats apart from the sampler's own
// counters — the inertness contract at harness granularity.
func TestRunWorkloadsSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	s := testSuite()
	dir := t.TempDir()
	s.SeriesPath = filepath.Join(dir, "run.csv")
	rows, err := s.RunWorkloads("async", 2)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	s.SeriesPath = ""
	plain, err := s.RunWorkloads("async", 2)
	if err != nil {
		t.Fatalf("unsampled run: %v", err)
	}
	if len(rows) != len(plain) {
		t.Fatalf("sampled %d rows vs unsampled %d", len(rows), len(plain))
	}
	for i, r := range rows {
		masked := *r.Stats
		masked.SeriesTicks = 0
		masked.SeriesSamples = 0
		if !reflect.DeepEqual(masked, *plain[i].Stats) {
			t.Errorf("%s: sampling perturbed the run:\nsampled:   %+v\nunsampled: %+v",
				r.Workload, *r.Stats, *plain[i].Stats)
		}
		if r.Stats.SeriesSamples < 2 {
			t.Fatalf("%s: only %d samples recorded", r.Workload, r.Stats.SeriesSamples)
		}
		path := filepath.Join(dir, "run."+r.Workload+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: series file: %v", r.Workload, err)
		}
		if n, err := metrics.ValidateSeries(data); err != nil || n == 0 {
			t.Fatalf("%s: invalid series file (%d samples): %v", r.Workload, n, err)
		}
	}
}

// TestFigureConvergence pins the convergence experiment: all four legs
// run sampled, the built-in DES-vs-parallel byte-identity check
// passes, the figure carries the three curves, residuals decay, and
// the per-leg time-to-residual headlines print.
func TestFigureConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := ran(t, "convergence")
	f, buf := r.figs[0], bytes.NewBuffer(r.text)
	if len(f.Series) != 3 {
		t.Fatalf("figure has %d curves, want Sync/Async/Live", len(f.Series))
	}
	for _, c := range f.Series {
		if len(c.Y) < 3 {
			t.Fatalf("curve %s has only %d samples", c.Label, len(c.Y))
		}
		first, lastv := c.Y[0], c.Y[len(c.Y)-1]
		if !(lastv < first) {
			t.Fatalf("curve %s residual did not decay: first %g, last %g", c.Label, first, lastv)
		}
		for _, y := range c.Y {
			if y < 0 {
				t.Fatalf("curve %s carries the no-Progressive sentinel; pagerank must report residuals", c.Label)
			}
		}
	}
	if len(f.X) < 3 {
		t.Fatalf("figure axis has %d ticks", len(f.X))
	}
	out := buf.String()
	if strings.Count(out, "convergence ") != 4 {
		t.Fatalf("want 4 per-leg headlines:\n%s", out)
	}
	if !strings.Contains(out, "Sync(S=0) DES") || !strings.Contains(out, "live") {
		t.Fatalf("headlines missing legs:\n%s", out)
	}
}
