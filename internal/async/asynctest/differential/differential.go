// Package differential is the asynchronous runtime's differential check.
// One uint64 seed draws a configuration of the runtime — workload, input
// graph or census, partitioner and partition count, cost model, static
// bound or staleness controller, crash plan and checkpoint policy,
// recorder and sampler, pool size — and Check runs it on all three
// executors, asserting:
//   - the DES and the parallel executor agree bit for bit: every
//     virtual-time RunStats field and the converged state;
//   - a second parallel run repeats the speculation counters;
//   - adapt.Fixed(S) is the static bound S;
//   - the recorder and the sampler change nothing but the sampler's own
//     counters, and the DES and parallel series are the same bytes;
//   - with crashes on, crashes struck and were recovered;
//   - with crashes off, the live executor reaches the DES state: exactly
//     on the monotone workloads, within a tolerance on the others;
//   - on the monotone workloads, every executor's series residual never
//     rises and ends at the unreached share of the converged state.
//
// asynctest's TestDifferential runs the pinned seeds and checks that
// together they cover every path above; FuzzDifferential runs any seed.
// Each workload package pins seeds of its own workload, one test per
// property:
//   - TestAsyncParallelExecutorMatchesDES: the parallel executor keeps
//     some speculations and discards others;
//   - TestAsyncAdaptiveParity: a staleness policy moves a bound mid-run;
//   - TestAsyncFixedPolicyIdentity: adapt.Fixed(S) is the static bound S;
//   - TestAsyncCrashParity: crashes strike and are recovered, without and
//     with a checkpoint policy;
//   - TestAsyncLiveMatchesDES: the live executor reaches the DES state;
//   - TestAsyncTraceInert, TestAsyncSeriesInert: the recorder, or the
//     sampler, changes nothing and stamps wall time on the live leg.
//
// A seed that ever fails is pinned once the failure is fixed.
package differential

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adapt"
	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Presets names the cost models a seed draws from, in draw order.
func Presets() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// liveNetScale is the emulated publish latency of every run: the DES and
// parallel executors ignore it, and it keeps the live leg fast while
// visibility order still matters (a 5.6 ms EC2 push becomes ~110 µs).
const liveNetScale = 0.02

// presets are the cost models a seed draws from: the paper's cloud
// testbed, the same with one attempt in twenty failing and heavy
// stragglers, its cross-rack variant, and the HPC interconnect, whose
// microsecond publish latency makes speculations stale most often.
var presets = []struct {
	name string
	cfg  func() *cluster.Config
}{
	{"ec2", cluster.EC2LargeCluster},
	{"ec2-noisy", func() *cluster.Config {
		c := cluster.EC2LargeCluster()
		c.FailureProb, c.StragglerJitter = 0.05, 0.2
		return c
	}},
	{"ec2-xrack", cluster.EC2CrossRackCluster},
	{"hpc", cluster.HPCCluster},
}

// config is what one seed draws.
type config struct {
	w      *harness.Workload
	in     *harness.Inputs
	input  string // how in was built
	method string // the partitioner; "" for the census
	multi  bool   // in is the multi-component graph
	preset string
	cfg    *cluster.Config
	// opt holds the bound or policy and the pool size; its executor is
	// the DES.
	opt           async.Options
	fixed         bool // opt.Adapt is adapt.Fixed(opt.Staleness)
	crash         bool
	ckpt          recovery.Policy // with crash only
	trace, series bool
}

func (c *config) String() string {
	bound := fmt.Sprintf("S=%d", c.opt.Staleness)
	if c.opt.Adapt != nil {
		bound = c.opt.Adapt.String()
	}
	crash := "no crashes"
	if c.crash {
		crash = fmt.Sprintf("crashes, checkpoint %v", c.ckpt)
	}
	return fmt.Sprintf("%s on %s, %s, %s, %d workers, %s, trace %v, series %v",
		c.w.Name, c.input, c.preset, bound, c.opt.Workers, crash, c.trace, c.series)
}

// draw builds the configuration seed names.
func draw(t *testing.T, seed uint64) *config {
	r := stats.NewRNG(seed)
	c := &config{w: harness.Workloads[r.Intn(len(harness.Workloads))]}
	p := presets[r.Intn(len(presets))]
	c.preset, c.cfg = p.name, p.cfg()
	c.cfg.LiveNetScale = liveNetScale
	k := 2 + r.Intn(7)
	if c.w == harness.KMeans {
		// 4 000 or 2 000 points: on 1 000 the live leg settles optima up
		// to 30 % off the DES's SSE, on these within 3 %.
		scale := 50 << r.Intn(2)
		pts, err := kmeans.GenerateCensus(kmeans.DefaultCensusConfig().Scaled(scale))
		if err != nil {
			t.Fatal(err)
		}
		c.in = &harness.Inputs{Points: pts, Parts: k, Threshold: 0.01}
		c.input = fmt.Sprintf("census ÷%d in %d parts", scale, k)
	} else {
		scale := 140 << r.Intn(2) // 2 000 or 1 000 nodes
		g, shape := harness.NewSuite(scale).GraphA(), fmt.Sprintf("Graph A ÷%d", scale)
		if r.Intn(2) == 0 {
			g, shape = multiComponent(r), "multi"
		}
		m := []partition.Method{partition.Multilevel, partition.BFS, partition.Range, partition.Hash}[r.Intn(4)]
		a, err := partition.Partition(g, k, partition.Options{Method: m, Seed: r.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
		if err != nil {
			t.Fatal(err)
		}
		c.in = &harness.Inputs{Subs: subs}
		c.input = fmt.Sprintf("%s (%d nodes), %v in %d parts", shape, g.NumNodes(), m, k)
		c.method, c.multi = m.String(), shape == "multi"
	}
	c.opt.Staleness = []int{0, 1, 2, 4, async.Unbounded}[r.Intn(5)]
	switch r.Intn(3) {
	case 1:
		pols := asynctest.AdaptivePolicies()
		c.opt.Adapt = pols[r.Intn(len(pols))]
	case 2:
		c.opt.Adapt, c.fixed = adapt.Fixed(c.opt.Staleness), true
	}
	c.opt.Workers = []int{1, 2, 4}[r.Intn(3)]
	if c.crash = r.Intn(3) == 0; c.crash && r.Intn(2) == 0 {
		c.ckpt = recovery.EverySteps(2 + r.Intn(4))
	}
	c.trace, c.series = r.Intn(2) == 0, r.Intn(2) == 0
	return c
}

// multiComponent draws a weighted graph of three to six weakly connected
// components — random trees whose edges point either way, plus a few
// extra edges — followed by one to five isolated nodes.
func multiComponent(r *stats.RNG) *graph.Graph {
	g := &graph.Graph{}
	for n := 3 + r.Intn(4); n > 0; n-- {
		base, m := len(g.Out), 3+r.Intn(12)
		g.Out = append(g.Out, make([][]graph.NodeID, m)...)
		edge := func(u, v int) {
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			g.Out[base+u] = append(g.Out[base+u], graph.NodeID(base+v))
		}
		for u := 1; u < m; u++ {
			edge(u, r.Intn(u))
		}
		for e := m / 2; e > 0; e-- {
			edge(r.Intn(m), r.Intn(m))
		}
	}
	g.Out = append(g.Out, make([][]graph.NodeID, 1+r.Intn(5))...)
	g.AssignUniformWeights(1, 100, r.Uint64())
	return g
}

// Check runs the configuration seed draws, fails t on the first broken
// property, and returns what the seed covered: "workload:", "preset:",
// "method:" and "multi:" (Hash, say, on the multi-component graph) keys,
// "trace", "series", "kept" and "discarded" speculations, "fixed", "moved:" with
// the policy that moved a bound, "crash" or "crash+checkpoint", the
// "kind:" of every event traced on the DES or parallel executor and the
// "live " kind of every one traced live, "live:" with the workload
// whose live leg ran, and "residual:" with the monotone workload whose
// series residual was checked against its converged state. It also fails
// t unless the seed covered every key in want.
func Check(t *testing.T, seed uint64, want ...string) map[string]bool {
	t.Helper()
	covered := check(t, seed)
	for _, w := range want {
		if !covered[w] {
			t.Errorf("seed %#x does not cover %s", seed, w)
		}
	}
	return covered
}

func check(t *testing.T, seed uint64) map[string]bool {
	c := draw(t, seed)
	t.Logf("seed %#x: %v", seed, c)
	run := func(cfg *cluster.Config, opt async.Options) harness.Run {
		t.Helper()
		r, err := c.w.Async(cfg, c.in, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt.Executor, err)
		}
		return r
	}
	covered := map[string]bool{"preset:" + c.preset: true, "method:" + c.method: c.method != "", "multi:" + c.method: c.multi,
		"workload:" + c.w.Name: true, "trace": c.trace, "series": c.series}

	cfg, opt := c.cfg, c.opt
	des := run(cfg, opt)
	if c.crash {
		crashy := *cfg
		crashy.CrashMTTF = des.Stats.Duration / 4
		cfg, opt.Checkpoint = &crashy, c.ckpt
		des = run(cfg, opt)
		if des.Stats.Crashes == 0 || des.Stats.Recoveries == 0 {
			t.Fatalf("no crash struck and was recovered at MTTF %v:\n%v", crashy.CrashMTTF, des.Stats)
		}
		covered["crash"] = c.ckpt == recovery.None()
		covered["crash+checkpoint"] = c.ckpt != recovery.None()
	}
	if c.fixed {
		plain := opt
		plain.Adapt = nil
		same(t, "adapt.Fixed against the static bound", run(cfg, plain), des, nil)
		if des.Stats.AdaptRaises+des.Stats.AdaptCuts != 0 {
			t.Fatalf("adapt.Fixed moved a bound:\n%v", des.Stats)
		}
		covered["fixed"] = true
	} else if opt.Adapt != nil {
		covered["moved:"+opt.Adapt.String()] = des.Stats.AdaptRaises+des.Stats.AdaptCuts > 0
	}

	opt.Executor = async.Parallel
	par := run(cfg, opt)
	asynctest.StatsEqual(t, c.String(), des.Stats, par.Stats)
	if !reflect.DeepEqual(des.State, par.State) {
		t.Fatal("the DES and the parallel executor converged to different states")
	}
	covered["kept"], covered["discarded"] = par.Stats.Speculated > 0, par.Stats.SpecDiscarded > 0

	// Both runs again with the seed's recorder and sampler. With both off
	// this is a plain repeat; either way the parallel run repeats the
	// speculation counters, which same compares.
	again := func(ex async.Executor, first harness.Run) *metrics.Series {
		o := opt
		o.Executor = ex
		if c.trace {
			o.Trace = trace.NewRecorder(1 << 16)
		}
		if c.series {
			o.Series = metrics.NewSeries(des.Stats.Duration/32, 0)
		}
		r := run(cfg, o)
		same(t, ex.String()+" with the recorder and the sampler", first, r, asynctest.SeriesStats)
		if c.trace && o.Trace.Len() == 0 {
			t.Fatalf("%v: the recorder captured no events", ex)
		}
		for _, e := range o.Trace.Events() {
			covered["kind:"+e.Kind.String()] = true
		}
		if c.series {
			counted(t, ex.String(), o.Series, r.Stats, 3)
			covered["residual:"+c.w.Name] = unreachedResidual(t, c, ex.String(), o.Series, r.State)
		}
		return o.Series
	}
	desSer, parSer := again(async.DES, des), again(async.Parallel, par)
	if c.series {
		var a, b bytes.Buffer
		if err := desSer.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := parSer.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("the DES and parallel series differ:\n%s\n%s", &a, &b)
		}
		if _, err := metrics.ValidateSeries(a.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if c.crash {
		return covered // the live executor has no crash model
	}

	opt = c.opt
	opt.Executor = async.Live
	if c.trace {
		opt.Trace = trace.NewRecorder(1 << 16)
	}
	if c.series {
		opt.Series = metrics.NewSeries(1e-3, 0) // a 1 ms real-time grid
	}
	liveRun := run(cfg, opt)
	live := liveRun.Stats
	switch static := opt.Adapt == nil || c.fixed; {
	case des.Stats.Converged && !live.Converged:
		t.Fatalf("the DES converged and the live executor did not:\n%v", live)
	case live.Steps < int64(len(live.PerWorkerSteps)):
		t.Fatalf("live took %d steps over %d partitions", live.Steps, len(live.PerWorkerSteps))
	case static && opt.Staleness >= 0 && live.MaxLead > opt.Staleness:
		t.Fatalf("live led by %d under the bound %d", live.MaxLead, opt.Staleness)
	case live.Duration <= 0 || live.LiveComputeTime <= 0:
		t.Fatalf("live measured a %v run and %v of compute", live.Duration, live.LiveComputeTime)
	}
	if c.trace && !slices.ContainsFunc(opt.Trace.Events(), func(e trace.Event) bool { return e.Wall > 0 }) {
		t.Fatal("the live trace carries no wall stamps")
	}
	for _, e := range opt.Trace.Events() {
		covered["live "+e.Kind.String()] = true
	}
	if c.series {
		counted(t, "live", opt.Series, live, 2)
		unreachedResidual(t, c, "live", opt.Series, liveRun.State)
		if !slices.ContainsFunc(opt.Series.Samples(), func(s metrics.Sample) bool { return s.Wall > 0 }) {
			t.Fatal("the live series carries no wall stamps")
		}
	}
	if drift, tol := liveDrift(c, des.State, liveRun.State); drift > tol {
		t.Fatalf("the live state lies %g from the DES state, tolerance %g", drift, tol)
	}
	covered["live:"+c.w.Name] = true
	return covered
}

// liveDrift measures how far a live run's state lies from the DES state,
// and how far it may. The monotone workloads, SSSP and CC, reach their one
// fixed point under any interleaving; PageRank's ranks may differ by its
// convergence tolerance, and K-Means may settle on another local optimum
// of nearly the same quality.
func liveDrift(c *config, des, live any) (drift, tol float64) {
	switch c.w {
	case harness.PageRank:
		return stats.InfNormDiff(des.([]float64), live.([]float64)), 1e-3
	case harness.KMeans:
		d, l := kmeans.SSE(c.in.Points, des.([][]float64)), kmeans.SSE(c.in.Points, live.([][]float64))
		return math.Abs(l-d) / d, 0.10
	}
	if !reflect.DeepEqual(des, live) {
		return math.Inf(1), 0
	}
	return 0, 0
}

// unreachedResidual checks a monotone workload's series and reports
// whether it did: SSSP's and CC's residual is the share of a partition's
// nodes still at their unreached value (+Inf, the node's own id), so the
// series never rises and its final sample is the largest such share the
// converged state leaves in any partition of c.in.Subs.
func unreachedResidual(t *testing.T, c *config, what string, ser *metrics.Series, state any) bool {
	t.Helper()
	var unreached func(u graph.NodeID) bool
	switch c.w {
	case harness.SSSP:
		unreached = func(u graph.NodeID) bool { return math.IsInf(state.([]float64)[u], 1) }
	case harness.CC:
		unreached = func(u graph.NodeID) bool { return state.([]graph.NodeID)[u] == u }
	default:
		return false
	}
	want := 0.0
	for _, s := range c.in.Subs {
		n := 0
		for _, u := range s.Nodes {
			if unreached(u) {
				n++
			}
		}
		want = max(want, float64(n)/float64(max(len(s.Nodes), 1)))
	}
	smp := ser.Samples()
	for i := 1; i < len(smp); i++ {
		if smp[i].Residual > smp[i-1].Residual {
			t.Fatalf("%s: the residual rose from %g to %g at tick %d", what, smp[i-1].Residual, smp[i].Residual, smp[i].Tick)
		}
	}
	if last := smp[len(smp)-1].Residual; last != want {
		t.Fatalf("%s: the final residual is %g, the converged state's unreached share %g", what, last, want)
	}
	return true
}

// counted fails t unless the series holds least samples or more and the
// run's stats count every one, dropped ones included.
func counted(t *testing.T, what string, ser *metrics.Series, st *async.RunStats, least int) {
	t.Helper()
	if n := ser.Len(); n < least || st.SeriesSamples != int64(n)+int64(ser.Dropped()) {
		t.Fatalf("%s: the series holds %d samples (+%d dropped), the stats count %d", what, n, ser.Dropped(), st.SeriesSamples)
	}
}

// same fails t unless two runs reached the same state with the same
// RunStats, fields in skip apart.
func same(t *testing.T, what string, a, b harness.Run, skip map[string]bool) {
	t.Helper()
	av, bv := reflect.ValueOf(*a.Stats), reflect.ValueOf(*b.Stats)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if x, y := av.Field(i).Interface(), bv.Field(i).Interface(); !skip[name] && !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: %s is %v, was %v\n%v\n%v", what, name, y, x, a.Stats, b.Stats)
		}
	}
	if !reflect.DeepEqual(a.State, b.State) {
		t.Fatalf("%s: the converged state differs", what)
	}
}
