package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/trace"
)

// suite at heavy scale reduction: full experiment pipeline wiring is
// under test, not the paper's absolute numbers. The sweep is thinned and
// the K-Means dataset shrunk so the whole package tests in seconds;
// benches and the CLI exercise the full axes.
func testSuite() *Suite {
	s := NewSuite(64)
	s.MaxSweepPoints = 4
	s.KMeansScaleCap = 16
	return s
}

// ranExperiment is one registry entry's run on a testSuite(): the suite
// it ran on, what it printed itself and the figures it returned.
type ranExperiment struct {
	suite *Suite
	text  []byte
	figs  []*Figure
}

var ranCache = map[string]*ranExperiment{}

// ran runs the registry entry carrying name on a fresh testSuite(), once
// per test binary: the shape tests and TestExperimentOutputGoldens look
// at the same run.
func ran(t *testing.T, name string) *ranExperiment {
	t.Helper()
	e, _ := Lookup(name)
	if e == nil {
		t.Fatalf("no experiment %q in the registry", name)
	}
	if r, ok := ranCache[e.Names[0]]; ok {
		return r
	}
	r := &ranExperiment{suite: testSuite()}
	var buf bytes.Buffer
	figs, err := e.Run(r.suite, "general", &buf)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r.text, r.figs = buf.Bytes(), figs
	ranCache[e.Names[0]] = r
	return r
}

// seriesY returns the figure's series carrying label.
func seriesY(t *testing.T, f *Figure, label string) []float64 {
	t.Helper()
	for _, sr := range f.Series {
		if sr.Label == label {
			return sr.Y
		}
	}
	t.Fatalf("figure %q has no series %q", f.Title, label)
	return nil
}

func TestPartitionCountsScale(t *testing.T) {
	s := NewSuite(1)
	ks := s.PartitionCounts()
	want := []int{100, 200, 400, 800, 1600, 3200, 6400}
	if len(ks) != len(want) {
		t.Fatalf("counts %v", ks)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("counts %v, want %v", ks, want)
		}
	}
	// Scaled down: monotone, deduplicated, >= 2.
	ks = NewSuite(64).PartitionCounts()
	for i, k := range ks {
		if k < 2 {
			t.Fatalf("count %d < 2", k)
		}
		if i > 0 && ks[i] <= ks[i-1] {
			t.Fatalf("counts not strictly increasing: %v", ks)
		}
	}
	// Thinned sweep keeps both ends of the full axis.
	s = NewSuite(1)
	s.MaxSweepPoints = 4
	thin := s.PartitionCounts()
	if len(thin) != 4 {
		t.Fatalf("thinned counts %v, want 4 points", thin)
	}
	if thin[0] != 100 || thin[len(thin)-1] != 6400 {
		t.Fatalf("thinned counts %v lost the sweep ends", thin)
	}
	for i := 1; i < len(thin); i++ {
		if thin[i] <= thin[i-1] {
			t.Fatalf("thinned counts not increasing: %v", thin)
		}
	}
}

func TestTables(t *testing.T) {
	s := testSuite()
	var buf bytes.Buffer
	s.Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Table I", "8 nodes", "replication"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := s.Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"Table II", "Graph A", "Graph B", "0.85"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigures2and4ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	figs := ran(t, "figure2").figs
	f2, f4 := figs[0], figs[1]
	gen, eag := f2.Series[0].Y, f2.Series[1].Y
	// General iteration count is partition-independent (paper: "The
	// number of iterations does not change in the general case").
	for i := 1; i < len(gen); i++ {
		if gen[i] != gen[0] {
			t.Fatalf("general iterations vary across partitions: %v", gen)
		}
	}
	// Eager needs fewer global iterations everywhere, most pronounced at
	// few partitions.
	for i := range eag {
		if eag[i] >= gen[i] {
			t.Fatalf("eager not below general at index %d: %v vs %v", i, eag[i], gen[i])
		}
	}
	if eag[0] >= eag[len(eag)-1] {
		t.Fatalf("eager iterations do not grow with partition count: %v", eag)
	}
	// Time figure: eager faster at every sweep point.
	genT, eagT := f4.Series[0].Y, f4.Series[1].Y
	for i := range eagT {
		if eagT[i] >= genT[i] {
			t.Fatalf("eager not faster at index %d: %v vs %v", i, eagT[i], genT[i])
		}
	}
	if geo, max := f4.SpeedupSummary(); geo < 1.5 || max < 2 {
		t.Fatalf("speedups too small: geo %.2f max %.2f", geo, max)
	}
}

func TestFigures6and7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	figs := ran(t, "figure6").figs
	f6, f7 := figs[0], figs[1]
	gen, eag := f6.Series[0].Y, f6.Series[1].Y
	for i := 1; i < len(gen); i++ {
		if gen[i] != gen[0] {
			t.Fatalf("general SSSP iterations vary: %v", gen)
		}
	}
	for i := range eag {
		if eag[i] > gen[i] {
			t.Fatalf("eager SSSP above general at %d: %v vs %v", i, eag[i], gen[i])
		}
	}
	genT, eagT := f7.Series[0].Y, f7.Series[1].Y
	if eagT[0] >= genT[0] {
		t.Fatalf("eager SSSP not faster at fewest partitions: %v vs %v", eagT[0], genT[0])
	}
}

func TestFigures8and9Run(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	figs := ran(t, "figure8").figs
	f8, f9 := figs[0], figs[1]
	gen := f8.Series[0].Y
	// Tighter thresholds need at least as many general iterations.
	for i := 1; i < len(gen); i++ {
		if gen[i] < gen[i-1] {
			t.Fatalf("general K-Means iterations fell with tighter threshold: %v", gen)
		}
	}
	if len(f9.Series[0].Y) != len(KMeansThresholds) {
		t.Fatal("time series length mismatch")
	}
}

func TestFiguresAsyncShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	figs := ran(t, "asyncA").figs
	itFig, tFig := figs[0], figs[1]
	if len(itFig.Series) != 3 || len(tFig.Series) != 3 {
		t.Fatalf("want three series (general/eager/async), got %d", len(tFig.Series))
	}
	genT, eagT, asyT := tFig.Series[0].Y, tFig.Series[1].Y, tFig.Series[2].Y
	for i := range asyT {
		// The acceptance bar: async sim-time-to-convergence beats both
		// synchronous modes at every sweep point (it pays one job launch
		// total instead of one per global iteration).
		if asyT[i] >= genT[i] {
			t.Fatalf("async not faster than general at %d: %v vs %v", i, asyT[i], genT[i])
		}
		if asyT[i] >= eagT[i] {
			t.Fatalf("async not faster than eager at %d: %v vs %v", i, asyT[i], eagT[i])
		}
	}
	// Async does strictly more (stale) iterations than eager's global
	// count — the "more iterations per second, same quality" trade.
	asyIt, eagIt := itFig.Series[2].Y, itFig.Series[1].Y
	sawMore := false
	for i := range asyIt {
		if asyIt[i] > eagIt[i] {
			sawMore = true
		}
	}
	if !sawMore {
		t.Fatal("async never exceeded eager's iteration count; staleness trade not visible")
	}
}

func TestStalenessSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	f := ran(t, "staleness").figs[0]
	if len(f.Series) != 3 || len(f.Series[0].Y) != len(StalenessValues) {
		t.Fatalf("bad sweep shape: %+v", f.Series)
	}
	// Looser staleness means more (cheaper) steps: the mean step count
	// at unbounded staleness must exceed lockstep's.
	steps := f.Series[1].Y
	if steps[len(steps)-1] <= steps[0] {
		t.Fatalf("unbounded staleness did not add steps: %v", steps)
	}
}

// TestStalenessSweepCrossRack: the paper-scale variant must run on the
// cross-rack cluster and restore the suite's cluster afterwards.
func TestStalenessSweepCrossRack(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := ran(t, "stalenessx")
	s, f := r.suite, r.figs[0]
	if !strings.Contains(f.Title, "xrack") {
		t.Fatalf("cross-rack sweep not labelled with its cluster: %q", f.Title)
	}
	if s.Cluster.Name != "ec2-8-xlarge" {
		t.Fatalf("suite cluster not restored: %s", s.Cluster.Name)
	}
}

// TestModeSweepWithParallelExecutor: the async series of the comparison
// figures must be identical whichever executor produced them.
func TestModeSweepWithParallelExecutor(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := ran(t, "asyncA")
	des, desFig := r.suite, r.figs[1]
	par := testSuite()
	par.AsyncExecutor = async.Parallel
	asyncA, _ := Lookup("asyncA")
	parFigs, err := asyncA.Run(par, "general", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	parFig := parFigs[1]
	// Look the async series up by its label, not position: the mode list
	// may grow/reorder without this test silently comparing the wrong
	// (identical-by-construction) series.
	label := des.asyncLabel()
	desY, parY := seriesY(t, desFig, label), seriesY(t, parFig, label)
	for i := range desY {
		if desY[i] != parY[i] {
			t.Fatalf("async time series diverged across executors at %d: %v vs %v", i, desY, parY)
		}
	}
}

// TestFigureParallelScaling: the cores-scaling figure runs, covers the
// worker axis, and (by construction) verifies executor parity.
func TestFigureParallelScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	f := ran(t, "parallel").figs[0]
	if len(f.Series) != 4 || len(f.Series[0].Y) != len(ParallelWorkerCounts) {
		t.Fatalf("bad scaling figure shape: %+v", f.Series)
	}
	for i, sp := range f.Series[0].Y {
		if sp <= 0 {
			t.Fatalf("non-positive speedup at %d: %v", i, f.Series[0].Y)
		}
	}
}

// TestFigureLiveScaling: the live-executor figure runs, covers the
// worker axis, and (by construction) checks every live run's converged
// ranks against the DES oracle. The speedup magnitude is a property of
// the hardware this runs on, so only positivity is pinned here; the
// recorded sweep lives in EXPERIMENTS.md. It runs at the differential
// check's latency scale, 0.02; the registry's full-latency figure runs in
// CI's experiments job (asyncmr -scale 32 all).
func TestFigureLiveScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	f, err := testSuite().figureLiveScaling(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 || len(f.Series[0].Y) != len(LiveWorkerCounts) {
		t.Fatalf("bad live scaling figure shape: %+v", f.Series)
	}
	for i, sp := range f.Series[0].Y {
		if sp <= 0 {
			t.Fatalf("non-positive speedup at %d: %v", i, f.Series[0].Y)
		}
	}
}

// TestFigureParallelScalingHPC: the HPC variant must keep the
// speculation series near the EC2 figure's level: publications visible
// within microseconds make more speculations stale, but must not collapse
// the share that is kept (a rule that waits for inputs to be provably
// final pins SpecDepth at ~1 here). Measured at 1, 2, 4, 8 goroutines
// (window 3, 6, 12, 24 of 25 partitions): EC2 keeps 0.86, 0.90, 0.92,
// 0.81 of the steps, HPC 0.69, 0.79, 0.86, 0.61 — ratios 0.80, 0.88,
// 0.93, 0.76, the deepest window discarding most; the bar is two thirds.
func TestFigureParallelScalingHPC(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	ec2 := ran(t, "parallel").figs[0]
	r := ran(t, "parallelhpc")
	s, hpc := r.suite, r.figs[0]
	if !strings.Contains(hpc.Title, "hpc") {
		t.Fatalf("HPC figure not labelled with its cluster: %q", hpc.Title)
	}
	if s.Cluster.Name != "ec2-8-xlarge" {
		t.Fatalf("suite cluster not restored: %s", s.Cluster.Name)
	}
	ec2Frac, hpcFrac := seriesY(t, ec2, "SpecFrac"), seriesY(t, hpc, "SpecFrac")
	hpcDepth := seriesY(t, hpc, "SpecDepth")
	for i := range hpcFrac {
		if hpcFrac[i] < ec2Frac[i]*2/3 {
			t.Fatalf("HPC speculation collapsed at workers=%d: frac %.2f vs EC2 %.2f",
				ParallelWorkerCounts[i], hpcFrac[i], ec2Frac[i])
		}
		if hpcDepth[i] < 2 {
			t.Fatalf("HPC speculation depth %v degenerated to head-only dispatch", hpcDepth[i])
		}
	}
}

// TestStalenessSweepCluE: the 460-node sweep must run on the CluE model
// and restore the suite's cluster afterwards.
func TestStalenessSweepCluE(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := ran(t, "stalenessclue")
	s, f := r.suite, r.figs[0]
	if !strings.Contains(f.Title, "clue") {
		t.Fatalf("CluE sweep not labelled with its cluster: %q", f.Title)
	}
	if s.Cluster.Name != "ec2-8-xlarge" {
		t.Fatalf("suite cluster not restored: %s", s.Cluster.Name)
	}
}

// TestAdaptiveSweepRuns drives the fixed-vs-adaptive staleness sweep on
// the cross-rack cluster: both controller families must actually move
// bounds, stay exact to the sweep's lockstep fixed point within the
// suite's tolerance, and spend less gate-wait time than fixed lockstep
// while spending fewer stale steps than free-running.
func TestAdaptiveSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := ran(t, "adaptive")
	s, f := r.suite, r.figs[0]
	labels := AdaptiveSweepLabels()
	if len(f.Series) != 4 || len(f.Series[0].Y) != len(labels) {
		t.Fatalf("bad adaptive sweep shape: %+v", f.Series)
	}
	if !strings.Contains(f.Title, "xrack") {
		t.Fatalf("adaptive sweep not labelled with its cluster: %q", f.Title)
	}
	if s.Cluster.Name != "ec2-8-xlarge" {
		t.Fatalf("suite cluster not restored: %s", s.Cluster.Name)
	}
	rows, err := s.AdaptiveSweep(s.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AdaptiveSweepRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	lockstep, free := byLabel["S=0"], byLabel["S=inf"]
	for _, name := range []string{"aimd", "drift"} {
		r, ok := byLabel[name]
		if !ok {
			t.Fatalf("sweep missing the %s row", name)
		}
		if !r.Stats.Converged {
			t.Fatalf("%s did not converge", name)
		}
		if r.Stats.AdaptRaises+r.Stats.AdaptCuts == 0 {
			t.Fatalf("%s never moved a bound: %+v", name, r.Stats)
		}
		if r.RankDrift > 2e-3 {
			t.Fatalf("%s drifted %g from the lockstep fixed point", name, r.RankDrift)
		}
		if r.Stats.GateWaitTime >= lockstep.Stats.GateWaitTime {
			t.Fatalf("%s gate-wait time %v not below fixed lockstep's %v",
				name, r.Stats.GateWaitTime, lockstep.Stats.GateWaitTime)
		}
		if r.Stats.MeanSteps >= free.Stats.MeanSteps {
			t.Fatalf("%s mean steps %.1f not below free-running's %.1f",
				name, r.Stats.MeanSteps, free.Stats.MeanSteps)
		}
	}
}

func TestRunWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	s := testSuite()
	for _, mode := range []string{"general", "eager", "async", "live"} {
		rows, err := s.RunWorkloads(mode, 2)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		// Connected components exists only on the async runtime, so the
		// async and live sweeps carry one extra row.
		want := 3
		if mode == "async" || mode == "live" {
			want = 4
		}
		if len(rows) != want {
			t.Fatalf("%s: %d rows, want %d workloads", mode, len(rows), want)
		}
		for _, r := range rows {
			if !r.Converged {
				t.Errorf("%s/%s did not converge", mode, r.Workload)
			}
			if r.SimSeconds <= 0 {
				t.Errorf("%s/%s zero duration", mode, r.Workload)
			}
		}
	}
	if _, err := s.RunWorkloads("bogus", 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
	var buf bytes.Buffer
	rows, err := s.RunWorkloads("async", -1)
	if err != nil {
		t.Fatalf("unbounded async run: %v", err)
	}
	RenderWorkloadRows(&buf, rows, "unbounded")
	if !strings.Contains(buf.String(), "unbounded") {
		t.Fatalf("render missing unbounded tag:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "cc") {
		t.Fatalf("async sweep missing the cc workload:\n%s", buf.String())
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{
		Title:  "Test figure",
		XLabel: "# Partitions",
		YLabel: "Time",
		X:      []float64{100, 200, 400},
		Series: []Series{
			{Label: "General", Y: []float64{800, 900, 1000}},
			{Label: "Eager", Y: []float64{100, 150, 400}},
		},
		Comparable: true,
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Test figure", "General", "Eager", "100", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	geo, max := f.SpeedupSummary()
	if geo < 3 || geo > 5 {
		t.Errorf("geomean %.2f out of expected range", geo)
	}
	if max != 8 {
		t.Errorf("max speedup %.2f, want 8", max)
	}
}

func TestFigureRenderDegenerate(t *testing.T) {
	// Single-series, constant-value figures must not panic.
	f := &Figure{
		Title:  "flat",
		X:      []float64{1, 2},
		Series: []Series{{Label: "only", Y: []float64{5, 5}}},
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "flat") {
		t.Fatal("missing title")
	}
	if geo, _ := f.SpeedupSummary(); geo != 0 {
		t.Fatal("single series should have no speedup")
	}
}

func TestScalabilityRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := ran(t, "scale")
	s, f := r.suite, r.figs[0]
	genT, eagT := f.Series[0].Y, f.Series[1].Y
	for i := range eagT {
		if eagT[i] >= genT[i] {
			t.Fatalf("eager not faster on CluE at %d: %v vs %v", i, eagT[i], genT[i])
		}
	}
	// Suite cluster restored after the CluE override.
	if s.Cluster.Name != "ec2-8-xlarge" {
		t.Fatalf("suite cluster not restored: %s", s.Cluster.Name)
	}
}

// TestFigureRecoverySweep: the checkpoint-interval-vs-MTTF sweep of the
// worker-crash fault model must run end to end and show the trade-off's
// two sides: total checkpoint time falls monotonically as the interval
// grows, and the checkpoint-free column replays the most lost work
// (highest recovery time in the harshest regime). The figure must be
// identical whichever executor produced it.
func TestFigureRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	f := ran(t, "recovery").figs[0]
	if len(f.Series) != len(RecoveryMTTFFractions)+2 {
		t.Fatalf("bad sweep shape: %d series", len(f.Series))
	}
	var ckptT, recT []float64
	for _, ser := range f.Series {
		switch ser.Label {
		case "CkptTime":
			ckptT = ser.Y
		case "RecTime":
			recT = ser.Y
		}
	}
	if ckptT == nil || recT == nil {
		t.Fatalf("decomposition series missing: %+v", f.Series)
	}
	// X axis is {none, 1, 2, ...}: no checkpoints cost nothing to write,
	// and from K=1 on the total write time falls as K grows.
	if ckptT[0] != 0 {
		t.Fatalf("checkpoint-free column reports checkpoint time %g", ckptT[0])
	}
	for i := 2; i < len(ckptT); i++ {
		if ckptT[i] >= ckptT[i-1] {
			t.Fatalf("checkpoint overhead not falling with the interval: %v", ckptT)
		}
	}
	// The checkpoint-free column pays the most replay.
	for i := 1; i < len(recT); i++ {
		if recT[0] <= recT[i] {
			t.Fatalf("checkpoint-free recovery time %g not the maximum: %v", recT[0], recT)
		}
	}

	// Executor parity: the parallel executor regenerates the identical
	// figure (crashes included).
	s := testSuite()
	s.AsyncExecutor = async.Parallel
	pf, err := s.FigureRecoverySweep()
	if err != nil {
		t.Fatal(err)
	}
	for i, ser := range f.Series {
		for j, y := range ser.Y {
			if pf.Series[i].Y[j] != y {
				t.Fatalf("parallel executor diverged on %s[%d]: %g vs %g", ser.Label, j, pf.Series[i].Y[j], y)
			}
		}
	}
}

// TestRunWorkloadsTraced pins the suite's tracing plumbing: with
// TracePath set, every async workload writes a valid Chrome
// trace-event file (workload spliced before the extension), the rows
// carry full stats and an aggregated profile, and the rendering prints
// both. The same sweep re-run untraced must report identical stats —
// the inertness contract at harness granularity.
func TestRunWorkloadsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	s := testSuite()
	traceDir := t.TempDir()
	s.TracePath = filepath.Join(traceDir, "run.json")
	rows, err := s.RunWorkloads("async", 2)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	s.TracePath = ""
	plain, err := s.RunWorkloads("async", 2)
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	if len(rows) != len(plain) {
		t.Fatalf("traced %d rows vs untraced %d", len(rows), len(plain))
	}
	for i, r := range rows {
		if r.Stats == nil || r.Trace == nil {
			t.Fatalf("%s: traced row missing stats/profile: %+v", r.Workload, r)
		}
		if !reflect.DeepEqual(*r.Stats, *plain[i].Stats) {
			t.Errorf("%s: tracing perturbed the run:\ntraced:   %+v\nuntraced: %+v",
				r.Workload, *r.Stats, *plain[i].Stats)
		}
		path := filepath.Join(traceDir, "run."+r.Workload+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: trace file: %v", r.Workload, err)
		}
		if n, err := trace.ValidateChrome(data); err != nil || n == 0 {
			t.Fatalf("%s: invalid trace file (%d events): %v", r.Workload, n, err)
		}
		if r.Trace.Events == 0 {
			t.Fatalf("%s: empty profile", r.Workload)
		}
	}
	var buf bytes.Buffer
	RenderWorkloadRows(&buf, rows, "2")
	for _, want := range []string{"RunStats{", "trace profile", "GateWaits:"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("traced rendering missing %q:\n%s", want, buf.String())
		}
	}
	// MapReduce rows carry no async stats and render without the blocks.
	genRows, err := s.RunWorkloads("general", 0)
	if err != nil {
		t.Fatalf("general run: %v", err)
	}
	buf.Reset()
	RenderWorkloadRows(&buf, genRows, "")
	if strings.Contains(buf.String(), "RunStats{") {
		t.Fatalf("general rendering grew async stats blocks:\n%s", buf.String())
	}
}

// TestTraceExperiment pins the trace experiment: all three executors
// run traced, the profile tables print, the figure carries one point
// per executor, and the experiment's built-in DES inertness check
// passes.
func TestTraceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := ran(t, "trace")
	f, buf := r.figs[0], bytes.NewBuffer(r.text)
	if len(f.X) != 3 {
		t.Fatalf("figure has %d points, want one per executor", len(f.X))
	}
	for _, series := range f.Series {
		if len(series.Y) != 3 {
			t.Fatalf("series %s has %d points, want 3", series.Label, len(series.Y))
		}
	}
	// Every executor recorded events; DES and Parallel decompose the
	// same virtual trajectory, so their traced compute must agree.
	events := f.Series[3]
	if events.Label != "Events" {
		t.Fatalf("series order changed: %+v", f.Series)
	}
	for i, n := range events.Y {
		if n == 0 {
			t.Fatalf("executor %s recorded no events", f.XFmt(float64(i)))
		}
	}
	compute := f.Series[0].Y
	if compute[0] != compute[1] {
		t.Fatalf("DES and Parallel traced compute diverged: %v vs %v", compute[0], compute[1])
	}
	for _, want := range []string{"--- DES executor ---", "--- Parallel executor ---", "--- Live executor ---", "trace profile"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("experiment output missing %q:\n%s", want, buf.String())
		}
	}
}
