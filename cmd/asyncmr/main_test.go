package main

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/harness"
	"repro/internal/recovery"
)

// testSuite is the harness tests' heavy scale reduction: the dispatch is
// under test, not the numbers.
func testSuite() *harness.Suite {
	s := harness.NewSuite(64)
	s.MaxSweepPoints = 4
	s.KMeansScaleCap = 16
	return s
}

var runModes = []string{"general", "eager", "async", "live"}

// ranByHarness are the wall-clock entries internal/harness already runs
// through the same registry Run, each by the test named; livescaling's
// test runs the figure at a fiftieth of its publish latency, and CI's
// experiments job runs it in full (asyncmr -scale 32 all).
var ranByHarness = map[string]bool{
	"parallel":    true, // TestFigureParallelScaling
	"parallelhpc": true, // TestFigureParallelScalingHPC
	"livescaling": true, // TestFigureLiveScaling
	"trace":       true, // TestTraceExperiment
	"convergence": true, // TestFigureConvergence
}

// TestEveryExperimentRuns drives the dispatch for every experiment whose
// output no golden can hold — the wall-clock entries the harness tests do
// not run already, and run in each of its modes: no error, and a figure
// or a row out. (The deterministic entries are held byte for byte by the
// harness's TestExperimentOutputGoldens.)
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	for _, e := range harness.Experiments() {
		if !e.WallClock || ranByHarness[e.Names[0]] {
			continue
		}
		modes := []string{"general"}
		if slices.Contains(e.Flags, "mode") {
			modes = runModes
		}
		for _, name := range e.Names {
			for _, mode := range modes {
				var out bytes.Buffer
				if err := run(testSuite(), name, mode, &out); err != nil {
					t.Errorf("%s -mode %s: %v", name, mode, err)
				}
				// A figure carries a chart legend, a workload table its header.
				if s := out.String(); !strings.Contains(s, "log-scale:") && !strings.Contains(s, "sim-seconds") {
					t.Errorf("%s -mode %s printed neither a figure nor a row:\n%s", name, mode, s)
				}
			}
		}
	}
	if err := run(testSuite(), "figure1", "general", &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRegistryIsTheOnlyList: the usage text, `all` and the README's
// experiment list name exactly the registry's experiments.
func TestRegistryIsTheOnlyList(t *testing.T) {
	var names, inAll []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Names...)
		if !e.Standalone {
			inAll = append(inAll, e.Names...)
		}
	}
	want := append(slices.Clone(names), "all")
	slices.Sort(want)
	if len(slices.Compact(slices.Clone(want))) != len(want) {
		t.Fatalf("registry repeats a name: %v", want)
	}

	// Usage: one indented line per entry, led by its names, then `all`.
	var listed []string
	for _, line := range strings.Split(usage(), "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		for _, w := range strings.Fields(line) {
			if w != "all" && !slices.Contains(names, w) {
				break // the help text starts here
			}
			listed = append(listed, w)
		}
	}
	if slices.Sort(listed); !slices.Equal(listed, want) {
		t.Errorf("usage lists %v, registry has %v", listed, want)
	}

	var ran []string
	for _, e := range selected("all") {
		ran = append(ran, e.Names...)
	}
	if !slices.Equal(ran, inAll) {
		t.Errorf("all runs %v, want the registry minus its standalone entries, in order: %v", ran, inAll)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(readme), "Experiments: `")
	if !ok {
		t.Fatal("README.md has no \"Experiments: `...`\" list")
	}
	list, _, _ = strings.Cut(list, "`")
	got := strings.Fields(list)
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Errorf("README lists %v, registry has %v", got, want)
	}
}

// TestIgnoredFlagsRefused: a flag the experiment would accept and then
// ignore is an error naming the flag; every combination CI and the
// README use stays accepted.
func TestIgnoredFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		what, mode string
		set        []string
		refused    string // "" = accepted
	}{
		{"run", "live", []string{"mode", "parallel"}, "-parallel"},
		{"run", "live", []string{"mode", "mttf"}, "-mttf"},
		{"run", "general", []string{"staleness"}, "-staleness"},
		{"run", "async", []string{"mode", "workers"}, "-workers"},
		{"figure2", "async", []string{"mode"}, "-mode"},
		{"staleness", "general", []string{"trace"}, "-trace"},
		{"staleness", "general", []string{"staleness"}, "-staleness"},
		{"convergence", "general", []string{"series"}, "-series"},
		{"parallelhpc", "general", []string{"parallel"}, "-parallel"},
		{"livescaling", "general", []string{"workers"}, "-workers"},
		{"all", "general", []string{"mode"}, "-mode"},
		{"all", "general", []string{"trace"}, "-trace"},

		{"run", "general", nil, ""},
		{"run", "eager", []string{"mode", "scale"}, ""},
		{"run", "async", []string{"mode", "staleness", "parallel", "workers"}, ""},
		{"run", "async", []string{"mode", "staleness", "mttf", "ckpt"}, ""},
		{"run", "async", []string{"mode", "parallel", "trace"}, ""},
		{"run", "async", []string{"mode", "series"}, ""},
		{"run", "live", []string{"mode", "staleness", "workers"}, ""},
		{"run", "live", []string{"mode", "trace"}, ""},
		{"run", "bogus", []string{"mode"}, ""}, // RunWorkloads names the bad mode
		{"asyncA", "general", []string{"staleness", "parallel", "workers", "mttf", "ckpt"}, ""},
		{"recovery", "general", []string{"parallel"}, ""},
		{"trace", "general", []string{"workers", "v"}, ""},
		{"all", "general", []string{"scale", "parallel", "workers", "staleness", "mttf", "ckpt"}, ""},
		{"nosuch", "general", []string{"trace"}, ""}, // run names the unknown experiment
	} {
		err := refuseIgnored(c.what, c.mode, c.set)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s -mode %s %v: refused: %v", c.what, c.mode, c.set, err)
		case c.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), c.refused+" ") || !strings.Contains(err.Error(), c.what)):
			t.Errorf("%s -mode %s %v: got %v, want %s refused naming the experiment", c.what, c.mode, c.set, err, c.refused)
		}
	}
}

// TestStalenessSpellings: -staleness is one global bound, an integer or
// inf; anything else, such as a controller policy, is refused with the
// spellings it accepts.
func TestStalenessSpellings(t *testing.T) {
	for in, want := range map[string]int{"4": 4, "0": 0, " 8 ": 8, "-1": async.Unbounded, "-5": async.Unbounded, "inf": async.Unbounded} {
		if got, err := parseStaleness(in); err != nil || got != want {
			t.Errorf("-staleness %q: got %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"adaptive:aimd", "adaptive:drift", "fixed:4", "", "fast", "4.5"} {
		_, err := parseStaleness(in)
		if err == nil || !strings.Contains(err.Error(), "an integer S, or inf or a negative value") {
			t.Errorf("-staleness %q: got %v, want a refusal naming the accepted spellings", in, err)
		}
	}
}

// TestBadFlagValuesRefused: a -scale, -workers or -mttf value the
// harness would silently read as another one is an error naming the flag
// and what it accepts.
func TestBadFlagValuesRefused(t *testing.T) {
	for _, c := range []struct {
		scale, workers int
		mttf           float64
		refused        string // "" = accepted
	}{
		{0, 0, 0, "-scale 0"},
		{-3, 0, 0, "-scale -3"},
		{8, -2, 0, "-workers -2"},
		{0, -2, 0, "-scale 0"},
		{8, 0, -5, "-mttf -5"},
		{8, 0, math.NaN(), "-mttf NaN"},
		{1, 0, 0, ""},
		{8, 0, 0, ""},
		{32, 4, 0, ""},
		{8, 0, 30, ""},
	} {
		err := refuseBadValues(c.scale, c.workers, c.mttf, "")
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("-scale %d -workers %d -mttf %g: refused: %v", c.scale, c.workers, c.mttf, err)
		case c.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), c.refused+":") || !strings.Contains(err.Error(), "or more")):
			t.Errorf("-scale %d -workers %d -mttf %g: got %v, want %q refused with the accepted range", c.scale, c.workers, c.mttf, err, c.refused)
		}
	}
}

// TestCheckpointAndSeriesSpellings: -ckpt checkpoints every K steps or
// never, so a virtual-time interval is refused with the spellings it
// accepts; -series writes CSV only, so a path of another extension is
// refused before any run starts.
func TestCheckpointAndSeriesSpellings(t *testing.T) {
	for _, in := range []string{"none", "steps:8", "8"} {
		if _, err := recovery.ParsePolicy(in); err != nil {
			t.Errorf("-ckpt %s: %v", in, err)
		}
	}
	_, err := recovery.ParsePolicy("interval:5")
	if err == nil || !strings.Contains(err.Error(), "none") || !strings.Contains(err.Error(), "steps:K") {
		t.Errorf("-ckpt interval:5: got %v, want a refusal naming none and steps:K", err)
	}
	for _, path := range []string{"out.csv", "dir/run.csv", ""} {
		if err := refuseBadValues(8, 0, 0, path); err != nil {
			t.Errorf("-series %q: refused: %v", path, err)
		}
	}
	for _, path := range []string{"out.json", "out", "out.csv.gz"} {
		err := refuseBadValues(8, 0, 0, path)
		if err == nil || !strings.HasPrefix(err.Error(), "-series "+path+":") || !strings.Contains(err.Error(), ".csv") {
			t.Errorf("-series %s: got %v, want a refusal naming the .csv requirement", path, err)
		}
	}
}
