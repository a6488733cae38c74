package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/cluster"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for one round of each pass at a tiny
// size: every declared metric comes out exactly once per workload,
// finite, and zero exactly on the workloads it is not declared for; and
// the span file the traced pass would write is well formed.
func TestSmoke(t *testing.T) {
	tr := newRecorder()
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		results, err := runPass(allWorkloads, passConfig{seed: 1, z: size{64}, iters: 1, traced: traced}, tr)
		if err != nil {
			t.Fatal(err)
		}
		var printed bytes.Buffer
		sum := report(&printed, results)
		if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
			t.Fatalf("traced=%v: summary %+v\n%s", traced, sum, printed.String())
		}
		if want := len(allWorkloads) * len(defs); len(sum.Metrics) != want {
			t.Errorf("traced=%v: summary has %d metrics, want %d", traced, len(sum.Metrics), want)
		}
		for _, res := range results {
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", res.Workload, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				if !metricName.MatchString(def.Name) {
					t.Errorf("metric name %q is not a valid name", def.Name)
				}
				v, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", res.Workload, def.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", res.Workload, def.Name, v.Value)
				case !def.on(res.Workload) && v.Value != 0:
					t.Errorf("%s: metric %s = %v on a workload it is not declared for", res.Workload, def.Name, v.Value)
				case v.Unit != def.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, def.Name, v.Unit, def.Unit)
				}
				lines := strings.Count(printed.String(), " "+def.Name+" ")
				if want := countOn(def); lines != want {
					t.Errorf("metric %s printed %d times, want once per workload it is declared for (%d)", def.Name, lines, want)
				}
			}
		}
		if traced {
			checkSpans(t, tr.spans, results)
		}
	}
}

func countOn(def metricDef) int {
	n := 0
	for _, w := range allWorkloads {
		if def.on(w) {
			n++
		}
	}
	return n
}

// checkSpans asserts what the span file promises: every span is a root
// or has a recorded parent, self times are non-negative, and each
// workload's root spans add up to the wall time the pass measured.
func checkSpans(t *testing.T, spans []span, results []workloadResult) {
	t.Helper()
	fillSelfTimes(spans)
	roots := map[string]int64{}
	for _, s := range spans {
		if s.Parent < 0 || s.Parent > len(spans) || s.Parent == s.ID {
			t.Fatalf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		if s.SelfNS < 0 || s.EndNS < s.StartNS {
			t.Errorf("span %d (%s): start %d end %d self %d", s.ID, s.Name, s.StartNS, s.EndNS, s.SelfNS)
		}
		if s.Parent == 0 {
			roots[s.Workload] += s.EndNS - s.StartNS
		}
	}
	for _, res := range results {
		got := float64(roots[res.Workload]) / 1e9
		if math.Abs(got-res.WallS) > 0.02*res.WallS {
			t.Errorf("%s: root spans cover %.6fs of %.6fs measured", res.Workload, got, res.WallS)
		}
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's own
// metric tables from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("workloads %v, program has %v", names, allWorkloads)
	}
	declare := func(defs []metricDef) []declared {
		var out []declared
		for _, d := range defs {
			out = append(out, declared{d.Name, d.Unit, d.Better, d.Bound})
		}
		return out
	}
	if want := declare(endToEnd); !reflect.DeepEqual(b.EndToEnd, want) {
		t.Errorf("end_to_end\n got %+v\nwant %+v", b.EndToEnd, want)
	}
	if want := declare(perLayer); !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("per_layer\n got %+v\nwant %+v", b.PerLayer, want)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program measures for %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{4, 3, 2, 1}, 0.25, 1.75},
		{[]float64{4, 3, 2, 1}, 0.5, 2.5},
		{[]float64{4, 3, 2, 1}, 0.75, 3.25},
		{[]float64{7}, 0.25, 7},
		{[]float64{3, 9}, 0, 3},
		{[]float64{3, 9}, 1, 9},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.25); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	if quiet(xs) != 1 || median(xs) != 2 || !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("quiet %v, median %v of %v", quiet(xs), median(xs), xs)
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built tree: a
// root with two disjoint children, one of which has two overlapping
// children of its own and one reaching past its end.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 50, EndNS: 90},
		{ID: 4, Parent: 3, StartNS: 50, EndNS: 70},
		{ID: 5, Parent: 3, StartNS: 60, EndNS: 80},
		{ID: 6, Parent: 3, StartNS: 85, EndNS: 95},
	}
	fillSelfTimes(spans)
	want := []int64{30, 30, 5, 20, 20, 10}
	for i, s := range spans {
		if s.SelfNS != want[i] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.SelfNS, want[i])
		}
	}
}

// TestRecorderNesting checks parents, aggregated spans and the nil
// recorder.
func TestRecorderNesting(t *testing.T) {
	var off *recorder
	off.end(off.begin("nothing"))
	off.aggregate("nothing", 1, 1, 0)

	tr := newRecorder()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.aggregate("phase.a", 3, 40, 0)
	tr.aggregate("phase.b", 2, 60, 40)
	tr.end(inner)
	tr.end(outer)
	next := tr.begin("next")
	tr.end(next)
	parents := []int{0, outer, inner, inner, 0}
	for i, s := range tr.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %s: parent %d, want %d", s.Name, s.Parent, parents[i])
		}
	}
	a, b := tr.spans[2], tr.spans[3]
	if a.StartNS != tr.spans[1].StartNS || a.EndNS != b.StartNS || b.EndNS-b.StartNS != 60 || a.Calls != 3 {
		t.Errorf("aggregated spans not laid end to end from the parent's start: %+v %+v", a, b)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	exact := func(v float64) metricValue { return metricValue{Value: v, Lo: v, Hi: v} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want string
	}{
		{"same", lower, exact(100), exact(100), verdictWithin},
		{"slightly slower", lower, exact(100), exact(105), verdictWithin},
		{"slower", lower, exact(100), exact(120), verdictWorse},
		{"faster", lower, exact(100), exact(80), verdictBetter},
		{"higher is better", metricDef{Better: "higher", Bound: 0.10}, exact(100), exact(120), verdictBetter},
		{"wide overlapping ranges", lower, metricValue{Value: 100, Lo: 100, Hi: 140}, metricValue{Value: 115, Lo: 115, Hi: 150}, verdictUnresolved},
		{"wide disjoint ranges", lower, metricValue{Value: 100, Lo: 100, Hi: 140}, metricValue{Value: 150, Lo: 150, Hi: 190}, verdictWorse},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRejectsFailedRun makes sure a results file from a failed
// pass, which -out still writes with no metrics, does not compare as
// within-bound.
func TestCompareRejectsFailedRun(t *testing.T) {
	result := func(failed int, skip string) workloadResult {
		r := workloadResult{Workload: wlSchedNoop, Pass: passUntraced, Attempted: 3, Failed: failed, Metrics: map[string]metricValue{}}
		for _, def := range endToEnd {
			if failed == 0 && def.Name != skip {
				r.Metrics[def.Name] = metricValue{Value: 1, Lo: 1, Hi: 1, Unit: def.Unit}
			}
		}
		return r
	}
	write := func(name string, r workloadResult) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, resultsFile{Results: []workloadResult{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", result(0, ""))
	if err := compareFiles(io.Discard, good, good); err != nil {
		t.Fatalf("two complete results: %v", err)
	}
	for _, bad := range []string{write("failed.json", result(1, "")), write("no_run_s.json", result(0, "run_s"))} {
		if compareFiles(io.Discard, good, bad) == nil || compareFiles(io.Discard, bad, good) == nil {
			t.Errorf("%s compared without an error", filepath.Base(bad))
		}
	}
}

// TestNoopCheckCatchesWrongRuns makes sure the sched_* correctness gate
// passes a real run and rejects a run that lost a publication, skipped a
// step, read a wrong payload or broke its staleness bound.
func TestNoopCheckCatchesWrongRuns(t *testing.T) {
	w := newNoopWorkload(1, 8, 20)
	st, err := async.Run(cluster.New(cluster.EC2LargeCluster()), w, async.Options{Staleness: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(st, 0); err != nil {
		t.Fatalf("a correct run failed the check: %v", err)
	}
	tamper := func(name string, f func(st *async.RunStats, w *noopWorkload)) {
		bad := *st
		bad.PerWorkerSteps = append([]int(nil), st.PerWorkerSteps...)
		wc := *w
		wc.calls = append([]int(nil), w.calls...)
		f(&bad, &wc)
		if wc.check(&bad, 0) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	tamper("lost publication", func(st *async.RunStats, _ *noopWorkload) { st.Publishes-- })
	tamper("skipped steps", func(st *async.RunStats, _ *noopWorkload) { st.PerWorkerSteps[3] = 20 })
	tamper("unseen step call", func(_ *async.RunStats, w *noopWorkload) { w.calls[0]++ })
	tamper("wrong payload", func(_ *async.RunStats, w *noopWorkload) { w.bad = 1 })
	tamper("broken bound", func(st *async.RunStats, _ *noopWorkload) { st.MaxLead = 1 })
	tamper("not converged", func(st *async.RunStats, _ *noopWorkload) { st.Converged = false })
}
