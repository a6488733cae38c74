package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/adapt"
	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/pagerank"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// defaultStaleness is the bound the bounded PageRank runs use, the
// repository's own default (harness.DefaultStaleness).
const defaultStaleness = 4

// rankTolerance is the repository's stated tolerance between the ranks
// of two formulations or executors of PageRank (internal/pagerank tests).
const rankTolerance = 1e-3

// obs collects one pass's per-layer observations, one value per
// iteration. Names starting with "_" are intermediates for derive and
// are not metrics. A nil obs drops everything: the untraced pass.
type obs map[string][]float64

func (o obs) add(name string, v float64) {
	if o != nil {
		o[name] = append(o[name], v)
	}
}

// sample is what one iteration hands back to the harness.
type sample struct {
	// parts are the host seconds of each timed call into the program
	// under test: one entry, or one per run of a pair or mode of the trio.
	parts []float64
	// sims are the simulated seconds to convergence of each run: virtual
	// time only, never a host measurement, so that at a fixed seed sim_s
	// repeats exactly.
	sims   []float64
	allocs uint64 // runtime.MemStats.Mallocs delta
	bytes  uint64 // runtime.MemStats.TotalAlloc delta
	err    error  // a run error or a failed correctness check
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// timed runs f as the sample's next part and adds its allocations. The
// MemStats reads stop the world, so they stay outside the timer.
func (s *sample) timed(f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	s.parts = append(s.parts, time.Since(t0).Seconds())
	runtime.ReadMemStats(&after)
	s.allocs += after.Mallocs - before.Mallocs
	s.bytes += after.TotalAlloc - before.TotalAlloc
}

// workload is one set of inputs and the calls the benchmark times on it.
type workload interface {
	name() string
	// build makes the inputs from the seed. Its host time is setup_s.
	build(tr *recorder, o obs) error
	// warm runs once, untimed, after the last build: it fills caches and
	// computes the references the correctness checks compare against.
	warm() error
	// iterate runs the workload to convergence once and checks the
	// result. With a recorder it is the traced variant of the same calls.
	iterate(tr *recorder, o obs) sample
	// companion runs, once per round of the traced pass, the untimed
	// comparison run a derived metric needs beside each iteration.
	companion(o obs) error
	// replays runs, once at the end of the traced pass, the standalone
	// layer replays that use the workload's operation counts.
	replays(tr *recorder, o obs) error
	// derive adds the metrics computed from the aggregated ones.
	derive(agg map[string]float64)
}

// size scales a workload down for the smoke test; 1 is the benchmark's
// own size.
type size struct{ shrink int }

func (z size) of(n int) int {
	if n /= z.shrink; n < 1 {
		n = 1
	}
	return n
}

func newWorkload(name string, seed uint64, z size) (workload, error) {
	// The three executors get identical inputs: Graph A / 4 in 16 parts.
	quarter := graphInputs{seed: seed, z: z, shrink: 4, parts: 16}
	switch name {
	case wlPagerankDES:
		return &pagerankWorkload{wl: name, exec: async.DES, in: quarter}, nil
	case wlPagerankParallel:
		return &pagerankWorkload{wl: name, exec: async.Parallel, in: quarter}, nil
	case wlPagerankLive:
		return &pagerankWorkload{wl: name, exec: async.Live, in: quarter}, nil
	case wlSchedNoop:
		return &schedWorkload{wl: name, seed: seed, z: z}, nil
	case wlSchedNoopHooks:
		return &schedWorkload{wl: name, seed: seed, z: z, hooks: true}, nil
	case wlModesPagerank:
		return &modesWorkload{in: graphInputs{seed: seed, z: z, shrink: 8, parts: 8}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- graph inputs ---------------------------------------------------------

// graphInputs is a partitioned Graph A (Table II) shrunk by a factor,
// and the EC2 cluster model the paper ran on. Graph A is a fixed data
// set, generated with the seed Table II's configuration carries; the
// benchmark's seed feeds what is drawn anew for every job: the
// partitioner's randomized choices and the cluster's stochastic draws.
// (With the seed also feeding the generator, the eager formulation needs
// 9 to 12 global iterations depending on the graph, and allocations on
// modes_pagerank move by a fifth from seed to seed: more than any bound
// could allow. See README.md, "Bounds".)
type graphInputs struct {
	seed   uint64
	z      size
	shrink int // Graph A's node count is divided by this
	parts  int

	subs    []*graph.SubGraph
	cluster cluster.Config
}

func (in *graphInputs) build(tr *recorder, o obs) error {
	id := tr.begin("graph.Generate")
	g, err := graph.Generate(graph.GraphAConfig().Scaled(in.shrink * in.z.shrink))
	o.add("graph.generate_s", tr.end(id))
	if err != nil {
		return err
	}
	id = tr.begin("partition.Partition")
	a, err := partition.Partition(g, in.parts, partition.Options{Method: partition.Multilevel, Seed: in.seed})
	o.add("partition.partition_s", tr.end(id))
	if err != nil {
		return err
	}
	id = tr.begin("graph.BuildSubGraphs")
	in.subs, err = graph.BuildSubGraphs(g, a.Parts, a.K)
	o.add("graph.subgraphs_s", tr.end(id))
	if err != nil {
		return err
	}
	in.cluster = *cluster.EC2LargeCluster()
	in.cluster.Seed = in.seed
	if o != nil {
		edges := g.NumEdges()
		o.add("graph.edges", float64(edges))
		o.add("partition.edge_cut_frac", float64(a.EdgeCut(g))/float64(edges))
	}
	return nil
}

// runAsync is one cluster build and one async PageRank run to
// convergence, with a span around each call into a layer. It reports
// the run, the cluster's compute-op count and the run's host seconds
// (0 with tracing off).
func (in *graphInputs) runAsync(tr *recorder, cfg *cluster.Config, opt async.Options) (*pagerank.AsyncResult, int64, float64, error) {
	id := tr.begin("cluster.New")
	c := cluster.New(cfg)
	tr.end(id)
	id = tr.begin("pagerank.RunAsync")
	res, err := pagerank.RunAsync(c, in.subs, pagerank.DefaultConfig(), opt)
	d := tr.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, c.Metrics().ComputeOps, d, nil
}

// addPagerankObs records the async adapter's per-layer observations of
// one traced iteration; a Live iteration sums its two runs first.
func addPagerankObs(o obs, seconds float64, ops int64, st *async.RunStats) {
	o.add("pagerank.run_async_s", seconds)
	o.add("pagerank.ops", float64(ops))
	o.add("pagerank.steps", float64(st.Steps))
	o.add("pagerank.publishes", float64(st.Publishes))
	o.add("pagerank.pushed_bytes", float64(st.PushedBytes))
}

func derivePagerank(agg map[string]float64) {
	agg["pagerank.ns_per_op"] = agg["pagerank.run_async_s"] * 1e9 / agg["pagerank.ops"]
}

// statsDiffer names the first virtual-time RunStats field on which two
// runs disagree, or "" when they agree on all of them. The fields that
// describe how an executor ran rather than what the run computed are
// exempt: the list the repository's own parity tests exempt.
func statsDiffer(a, b *async.RunStats) string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if !asynctest.ExecutorSpecificStats[name] && !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return name
		}
	}
	return ""
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

// --- pagerank_des, pagerank_parallel, pagerank_live -------------------------

// pagerankWorkload runs async PageRank on one executor. All three
// executors get identical inputs, so their run_s compare directly, and a
// DES run made while warming up is the reference: DES and Parallel must
// reproduce its virtual-time RunStats and ranks exactly, Live its ranks
// within rankTolerance.
type pagerankWorkload struct {
	wl   string
	exec async.Executor
	in   graphInputs

	refStats *async.RunStats
	refRanks []float64
}

func (w *pagerankWorkload) name() string { return w.wl }

func (w *pagerankWorkload) build(tr *recorder, o obs) error { return w.in.build(tr, o) }

func (w *pagerankWorkload) options(exec async.Executor) async.Options {
	return async.Options{Staleness: defaultStaleness, Executor: exec, Workers: runtime.GOMAXPROCS(0)}
}

func (w *pagerankWorkload) warm() error {
	res, _, _, err := w.in.runAsync(nil, &w.in.cluster, w.options(async.DES))
	if err != nil {
		return err
	}
	if !res.Stats.Converged {
		return fmt.Errorf("DES reference run did not converge")
	}
	w.refStats, w.refRanks = res.Stats, res.Ranks
	if w.exec != async.DES {
		s := w.iterate(nil, nil)
		return s.err
	}
	return nil
}

func (w *pagerankWorkload) iterate(tr *recorder, o obs) sample {
	if w.exec == async.Live {
		return w.iterateLive(tr, o)
	}
	var (
		s   sample
		res *pagerank.AsyncResult
		ops int64
		d   float64
	)
	s.timed(func() { res, ops, d, s.err = w.in.runAsync(tr, &w.in.cluster, w.options(w.exec)) })
	if s.err != nil {
		return s
	}
	s.sims = []float64{res.Stats.Duration.Seconds()}
	if field := statsDiffer(w.refStats, res.Stats); field != "" {
		s.err = fmt.Errorf("RunStats.%s differs from the DES reference", field)
	} else if maxAbsDiff(w.refRanks, res.Ranks) != 0 {
		s.err = fmt.Errorf("ranks differ from the DES reference")
	}
	if tr != nil {
		addPagerankObs(o, d, ops, res.Stats)
		if w.exec == async.Parallel {
			o.add("async.spec_frac", float64(res.Stats.Speculated)/float64(res.Stats.Steps))
			o.add("async.spec_depth", float64(res.Stats.SpecDepth))
		}
	}
	return s
}

// iterateLive is one lockstep run and one free-running run on the live
// executor: S = 0 stresses gate, park and wake, S = Unbounded the
// steal-heavy dispatch path, so a gain for one that costs the other
// shows in the pair.
func (w *pagerankWorkload) iterateLive(tr *recorder, o obs) sample {
	cfg := w.in.cluster
	cfg.LiveNetScale = 0.02
	var (
		s        sample
		total    async.RunStats
		ops      int64
		secs     float64
		makespan float64 // the pair's measured RunStats.Duration: host time
	)
	for _, half := range []struct {
		staleness int
		suffix    string
	}{{0, ".s0"}, {async.Unbounded, ".sinf"}} {
		opt := w.options(async.Live)
		opt.Staleness = half.staleness
		var (
			res *pagerank.AsyncResult
			n   int64
			d   float64
		)
		s.timed(func() { res, n, d, s.err = w.in.runAsync(tr, &cfg, opt) })
		if s.err != nil {
			return s
		}
		st := res.Stats
		makespan += st.Duration.Seconds()
		if !st.Converged {
			s.err = fmt.Errorf("live run S=%d did not converge", half.staleness)
		} else if diff := maxAbsDiff(w.refRanks, res.Ranks); !(diff <= rankTolerance) {
			s.err = fmt.Errorf("live run S=%d ranks are %g from the DES reference, tolerance %g", half.staleness, diff, rankTolerance)
		}
		if s.err != nil {
			return s
		}
		if tr != nil {
			o.add("async.live_run_s"+half.suffix, d)
		}
		ops, secs = ops+n, secs+d
		total.Steps += st.Steps
		total.Publishes += st.Publishes
		total.PushedBytes += st.PushedBytes
		total.LiveComputeTime += st.LiveComputeTime
		total.GateWaitTime += st.GateWaitTime
		total.LiveSteals += st.LiveSteals
	}
	// The live executor has no virtual clock. sim_s is what the simulator
	// says these inputs take: the DES reference the ranks were checked
	// against.
	s.sims = []float64{w.refStats.Duration.Seconds()}
	if tr != nil {
		addPagerankObs(o, secs, ops, &total)
		o.add("async.live_makespan_s", makespan)
		o.add("async.live_compute_s", total.LiveComputeTime.Seconds())
		o.add("async.live_overlap", total.LiveComputeTime.Seconds()/makespan)
		o.add("async.live_gate_wait_s", total.GateWaitTime.Seconds())
		o.add("async.live_steps", float64(total.Steps))
		o.add("workpool.steals", float64(total.LiveSteals))
	}
	return s
}

// companion times a DES run beside each Parallel iteration, so that
// async.parallel_speedup compares runs that shared the host's mood.
func (w *pagerankWorkload) companion(o obs) error {
	if w.exec != async.Parallel {
		return nil
	}
	t0 := time.Now()
	_, _, _, err := w.in.runAsync(nil, &w.in.cluster, w.options(async.DES))
	o.add("_des_run_s", time.Since(t0).Seconds())
	return err
}

func (w *pagerankWorkload) replays(tr *recorder, o obs) error {
	switch w.exec {
	case async.DES:
		// The scheduler's cost per step, measured where nothing else
		// runs, is the base of async.runtime_share_est.
		noop, cfg := newNoopInputs(w.in.seed, w.in.z)
		for i := 0; i < 3; i++ {
			ns, err := plainNoopRun(noop, &cfg)
			if err != nil {
				return err
			}
			o.add("_noop_ns_per_step", ns)
		}
		series := metrics.NewSeries(100*simtime.Millisecond, 0)
		opt := w.options(async.DES)
		opt.Series = series
		if _, _, _, err := w.in.runAsync(tr, &w.in.cluster, opt); err != nil {
			return err
		}
		at, ok := series.TimeToResidual(1e-3)
		if !ok {
			return fmt.Errorf("residual never reached 1e-3")
		}
		o.add("metrics.sim_s_to_residual_1e-3", at.Seconds())
	case async.Live:
		ns, err := replayPoolDispatch(tr, w.in.z.of(200000))
		if err != nil {
			return err
		}
		o.add("workpool.dispatch_ns_per_item", ns)
	}
	return nil
}

func (w *pagerankWorkload) derive(agg map[string]float64) {
	derivePagerank(agg)
	switch w.exec {
	case async.DES:
		agg["async.runtime_share_est"] = agg["pagerank.steps"] * agg["_noop_ns_per_step"] * 1e-9 / agg["_run_s"]
	case async.Parallel:
		agg["async.parallel_speedup"] = agg["_des_run_s"] / agg["_run_s"]
	}
}

// --- sched_noop, sched_noop_hooks -------------------------------------------

// schedWorkload runs the no-op workload on the DES executor. Plain, one
// iteration is a lockstep run and a free-running run with every hook
// nil; with hooks, it is one run with all four hook sets live (trace,
// series, adaptive staleness, checkpoints under worker crashes), which
// use the same scheduler core differently.
// hooksClusterSeed is the cluster seed of sched_noop_hooks, whatever
// -seed says: it fixes the crash schedule (see build).
const hooksClusterSeed = 1

type schedWorkload struct {
	wl    string
	seed  uint64
	z     size
	hooks bool

	w       *noopWorkload
	cluster cluster.Config
	// ref holds the RunStats of each run of one untraced iteration; the
	// traced phase loop must reproduce them exactly.
	ref []*async.RunStats
}

func (w *schedWorkload) name() string { return w.wl }

func (w *schedWorkload) build(tr *recorder, _ obs) error {
	id := tr.begin("bench.newNoopInputs")
	w.w, w.cluster = newNoopInputs(w.seed, w.z)
	tr.end(id)
	if w.hooks {
		// The crash schedule is drawn from the cluster's seed, and a run
		// ends with its unluckiest worker: drawn anew per seed, sim_s moved
		// 5-7 % from seed to seed. It is a fixed part of this workload
		// instead; the seed still draws the script's length.
		w.cluster.Seed = hooksClusterSeed
		w.cluster.CrashMTTF = 20 * simtime.Second
	}
	return nil
}

// schedRun is one run of a sched iteration: its options, the suffix of
// the per-half metrics, and the trace recorder to read back.
type schedRun struct {
	opt    async.Options
	suffix string
	rec    *trace.Recorder
}

func (w *schedWorkload) runs() []schedRun {
	if !w.hooks {
		return []schedRun{
			{opt: async.Options{Staleness: 0}, suffix: ".s0"},
			{opt: async.Options{Staleness: async.Unbounded}, suffix: ".sinf"},
		}
	}
	rec := trace.NewRecorder(64 << 10)
	return []schedRun{{rec: rec, opt: async.Options{
		Trace:      rec,
		Series:     metrics.NewSeries(100*simtime.Millisecond, 0),
		Adapt:      adapt.AIMDDefault(),
		Checkpoint: recovery.EverySteps(8),
	}}}
}

func (w *schedWorkload) warm() error {
	w.ref = w.ref[:0]
	for _, r := range w.runs() {
		w.w.reset()
		st, err := async.Run(cluster.New(&w.cluster), w.w, r.opt)
		if err != nil {
			return err
		}
		w.ref = append(w.ref, st)
	}
	return nil
}

func (w *schedWorkload) iterate(tr *recorder, o obs) sample {
	var s sample
	var total async.RunStats
	var ph phaseTimes
	for i, r := range w.runs() {
		var st *async.RunStats
		s.timed(func() {
			w.w.reset()
			id := tr.begin("cluster.New")
			c := cluster.New(&w.cluster)
			tr.end(id)
			if tr == nil {
				st, s.err = async.Run(c, w.w, r.opt)
			} else {
				st, s.err = drivePhases(tr, &ph, c, w.w, r.opt)
			}
		})
		if s.err != nil {
			return s
		}
		bound := r.opt.Staleness
		if r.opt.Adapt != nil {
			bound = st.StalenessMax
		}
		if s.err = w.w.check(st, bound); s.err != nil {
			return s
		}
		if tr != nil && !reflect.DeepEqual(st, w.ref[i]) {
			s.err = fmt.Errorf("phase loop RunStats differ from async.Run's:\n%+v\n%+v", st, w.ref[i])
			return s
		}
		s.sims = append(s.sims, st.Duration.Seconds())
		nsPerStep := s.parts[i] * 1e9 / float64(st.Steps)
		switch {
		case tr != nil:
		case w.hooks:
			o.add("_hooked_ns_per_step", nsPerStep)
		default:
			o.add("async.ns_per_step"+r.suffix, nsPerStep)
		}
		total.Steps += st.Steps
		total.GateWaits += st.GateWaits
		if r.rec != nil && tr != nil {
			o.add("trace.events", float64(uint64(r.rec.Len())+r.rec.Dropped()))
			o.add("trace.dropped", float64(r.rec.Dropped()))
			o.add("metrics.samples", float64(st.SeriesSamples))
			o.add("recovery.crashes", float64(st.Crashes))
			o.add("recovery.checkpoints", float64(st.Checkpoints))
			o.add("recovery.lost_steps", float64(st.LostSteps))
			o.add("adapt.bound_changes", float64(st.AdaptRaises+st.AdaptCuts))
		}
	}
	if tr == nil {
		o.add("async.steps_per_s", float64(total.Steps)/sum(s.parts))
		return s
	}
	steps := float64(total.Steps)
	for p, name := range phaseNames {
		o.add("async."+name+"_ns_per_step", float64(ph.busy[p])/steps)
	}
	o.add("async.new_scheduler_s", ph.newScheduler)
	o.add("async.finish_s", ph.finish)
	o.add("async.admits", float64(ph.calls[phaseAdmit]))
	o.add("async.gate_waits", float64(total.GateWaits))
	o.add("async.steps", steps)
	return s
}

// companion runs the hooked topology with every hook nil at the default
// bound, the base of async.hooks_overhead_frac.
func (w *schedWorkload) companion(o obs) error {
	if !w.hooks {
		return nil
	}
	cfg := w.cluster
	cfg.CrashMTTF = 0
	ns, err := plainNoopRun(w.w, &cfg)
	if err != nil {
		return err
	}
	o.add("_plain_ns_per_step", ns)
	return nil
}

func (w *schedWorkload) replays(tr *recorder, o obs) error {
	if w.hooks {
		return nil
	}
	var steps int64
	for _, st := range w.ref {
		steps += st.Steps
	}
	if err := replayStore(tr, o, w.w); err != nil {
		return err
	}
	o.add("simtime.heap_push_pop_ns", replayHeap(tr, w.w.parts, int(steps)))
	o.add("cluster.price_ns_per_step", replayPricing(tr, &w.cluster, int(steps)))
	return nil
}

func (w *schedWorkload) derive(agg map[string]float64) {
	if w.hooks {
		agg["async.hooks_overhead_frac"] = agg["_hooked_ns_per_step"]/agg["_plain_ns_per_step"] - 1
	}
}

// --- modes_pagerank ----------------------------------------------------------

// modesWorkload is the paper's own comparison: PageRank to convergence
// in the general and the eager formulation on the synchronous MapReduce
// engine, then fully asynchronous, on one partitioned graph.
type modesWorkload struct {
	in graphInputs
}

func (w *modesWorkload) name() string { return wlModesPagerank }

func (w *modesWorkload) build(tr *recorder, o obs) error { return w.in.build(tr, o) }

func (w *modesWorkload) warm() error { return w.iterate(nil, nil).err }

func (w *modesWorkload) runSync(tr *recorder, span string, eager bool) (*pagerank.Result, float64, error) {
	id := tr.begin(span)
	res, err := pagerank.Run(mapreduce.NewEngine(cluster.New(&w.in.cluster)), w.in.subs, pagerank.DefaultConfig(), eager)
	return res, tr.end(id), err
}

func (w *modesWorkload) iterate(tr *recorder, o obs) sample {
	var (
		s                sample
		gen, eag         *pagerank.Result
		asy              *pagerank.AsyncResult
		genS, eagS, asyS float64
		ops              int64
	)
	s.timed(func() { gen, genS, s.err = w.runSync(tr, "pagerank.Run.general", false) })
	genAllocs := s.allocs
	if s.err == nil {
		s.timed(func() { eag, eagS, s.err = w.runSync(tr, "pagerank.Run.eager", true) })
	}
	if s.err == nil {
		s.timed(func() {
			asy, ops, asyS, s.err = w.in.runAsync(tr, &w.in.cluster, async.Options{Staleness: defaultStaleness})
		})
	}
	if s.err != nil {
		return s
	}
	simGen, simEag, simAsy := gen.Stats.Duration.Seconds(), eag.Stats.Duration.Seconds(), asy.Stats.Duration.Seconds()
	s.sims = []float64{simGen, simEag, simAsy}
	switch {
	case !gen.Stats.Converged || !eag.Stats.Converged || !asy.Stats.Converged:
		s.err = fmt.Errorf("converged: general %v, eager %v, async %v", gen.Stats.Converged, eag.Stats.Converged, asy.Stats.Converged)
	case !(maxAbsDiff(gen.Ranks, eag.Ranks) <= rankTolerance):
		s.err = fmt.Errorf("eager ranks are %g from general, tolerance %g", maxAbsDiff(gen.Ranks, eag.Ranks), rankTolerance)
	case !(maxAbsDiff(gen.Ranks, asy.Ranks) <= rankTolerance):
		s.err = fmt.Errorf("async ranks are %g from general, tolerance %g", maxAbsDiff(gen.Ranks, asy.Ranks), rankTolerance)
	}
	if tr != nil {
		addPagerankObs(o, asyS, ops, asy.Stats)
		o.add("mapreduce.general_s", genS)
		o.add("core.eager_s", eagS)
		o.add("mapreduce.sim_s_general", simGen)
		o.add("core.sim_s_eager", simEag)
		o.add("core.sim_speedup_eager_vs_general", simGen/simEag)
		o.add("async.sim_speedup_vs_eager", simEag/simAsy)
		o.add("mapreduce.iters_general", float64(gen.Stats.GlobalIterations))
		o.add("core.iters_eager", float64(eag.Stats.GlobalIterations))
		o.add("mapreduce.allocs_general", float64(genAllocs))
	}
	return s
}

func (w *modesWorkload) companion(obs) error           { return nil }
func (w *modesWorkload) replays(*recorder, obs) error  { return nil }
func (w *modesWorkload) derive(agg map[string]float64) { derivePagerank(agg) }
