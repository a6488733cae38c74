package main

// Workload names, in the order they run and print.
const (
	wlPagerankDES      = "pagerank_des"
	wlPagerankParallel = "pagerank_parallel"
	wlPagerankLive     = "pagerank_live"
	wlSchedNoop        = "sched_noop"
	wlSchedNoopHooks   = "sched_noop_hooks"
	wlModesPagerank    = "modes_pagerank"
)

// Where a number comes from; written beside every value in a results
// file so each recorded figure can be traced to the pass that made it.
const (
	srcUntraced = "untraced" // timed iterations with tracing off
	srcTraced   = "traced"   // spans or phase timers of the traced pass
	srcStats    = "stats"    // read from the program's public result structs, exact
	srcReplay   = "replay"   // a layer replayed standalone with the workload's counts
	srcDerived  = "derived"  // computed from other metrics of the same pass
)

// metricDef declares one metric. BENCHMARK.json at the repository root
// lists the same names, units and directions (bench_test.go checks the
// two against each other).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline it may worsen by
	Src    string
	On     []string // workloads that exercise it (nil = all); the others report 0
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// estimator is how the metric's per-iteration values become one number:
// host timings at the quiet estimator, everything else at the median
// (an exact count repeats, so its median is the count).
func (m metricDef) estimator() func([]float64) float64 {
	if (m.Unit == "s" || m.Unit == "ns") && m.Src != srcStats {
		return quiet
	}
	return median
}

// endToEnd are the metrics a user of the runtime sees, measured with
// tracing off. The bounds allow for the inputs changing with the seed
// as well as for the host (README.md, "Bounds").
var endToEnd = []metricDef{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, Src: srcUntraced},
	{Name: "sim_s", Unit: "s", Better: "lower", Bound: 0.02, Src: srcStats},
	{Name: "allocs", Unit: "count", Better: "lower", Bound: 0.05, Src: srcUntraced},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05, Src: srcUntraced},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Src: srcUntraced},
}

var (
	onGraph = []string{wlPagerankDES, wlPagerankParallel, wlPagerankLive, wlModesPagerank}
	onSched = []string{wlSchedNoop, wlSchedNoopHooks}
	onNoop  = []string{wlSchedNoop}
	onHooks = []string{wlSchedNoopHooks}
	onDES   = []string{wlPagerankDES}
	onPar   = []string{wlPagerankParallel}
	onLive  = []string{wlPagerankLive}
	onModes = []string{wlModesPagerank}
)

// perLayer are the single-layer metrics of the traced pass, grouped by
// the module they observe. README.md says which end-to-end metric each
// should move, and on which workload.
var perLayer = []metricDef{
	// graph, partition: the set-up path.
	{Name: "graph.generate_s", Unit: "s", Better: "lower", Src: srcTraced, On: onGraph},
	{Name: "graph.subgraphs_s", Unit: "s", Better: "lower", Src: srcTraced, On: onGraph},
	{Name: "graph.edges", Unit: "count", Better: "lower", Src: srcStats, On: onGraph},
	{Name: "partition.partition_s", Unit: "s", Better: "lower", Src: srcTraced, On: onGraph},
	{Name: "partition.edge_cut_frac", Unit: "ratio", Better: "lower", Src: srcStats, On: onGraph},

	// pagerank: the async adapter and its Jacobi kernel.
	{Name: "pagerank.run_async_s", Unit: "s", Better: "lower", Src: srcTraced, On: onGraph},
	{Name: "pagerank.ops", Unit: "count", Better: "lower", Src: srcStats, On: onGraph},
	{Name: "pagerank.ns_per_op", Unit: "ns", Better: "lower", Src: srcDerived, On: onGraph},
	{Name: "pagerank.steps", Unit: "count", Better: "lower", Src: srcStats, On: onGraph},
	{Name: "pagerank.publishes", Unit: "count", Better: "lower", Src: srcStats, On: onGraph},
	{Name: "pagerank.pushed_bytes", Unit: "bytes", Better: "lower", Src: srcStats, On: onGraph},

	// async scheduler core, driven phase by phase from the benchmark.
	{Name: "async.admit_ns_per_step", Unit: "ns", Better: "lower", Src: srcTraced, On: onSched},
	{Name: "async.gate_ns_per_step", Unit: "ns", Better: "lower", Src: srcTraced, On: onSched},
	{Name: "async.execute_ns_per_step", Unit: "ns", Better: "lower", Src: srcTraced, On: onSched},
	{Name: "async.publish_ns_per_step", Unit: "ns", Better: "lower", Src: srcTraced, On: onSched},
	{Name: "async.advance_ns_per_step", Unit: "ns", Better: "lower", Src: srcTraced, On: onSched},
	{Name: "async.new_scheduler_s", Unit: "s", Better: "lower", Src: srcTraced, On: onSched},
	{Name: "async.finish_s", Unit: "s", Better: "lower", Src: srcTraced, On: onSched},
	{Name: "async.admits", Unit: "count", Better: "lower", Src: srcStats, On: onSched},
	{Name: "async.gate_waits", Unit: "count", Better: "lower", Src: srcStats, On: onSched},
	{Name: "async.steps", Unit: "count", Better: "lower", Src: srcStats, On: onSched},
	{Name: "async.ns_per_step.s0", Unit: "ns", Better: "lower", Src: srcUntraced, On: onNoop},
	{Name: "async.ns_per_step.sinf", Unit: "ns", Better: "lower", Src: srcUntraced, On: onNoop},
	{Name: "async.steps_per_s", Unit: "1/s", Better: "higher", Src: srcUntraced, On: onSched},

	// store, event heap and cost model, replayed standalone.
	{Name: "async.store_publish_ns", Unit: "ns", Better: "lower", Src: srcReplay, On: onNoop},
	{Name: "async.store_read_ns", Unit: "ns", Better: "lower", Src: srcReplay, On: onNoop},
	{Name: "simtime.heap_push_pop_ns", Unit: "ns", Better: "lower", Src: srcReplay, On: onNoop},
	{Name: "cluster.price_ns_per_step", Unit: "ns", Better: "lower", Src: srcReplay, On: onNoop},

	// async, derived and executor-specific.
	{Name: "async.runtime_share_est", Unit: "ratio", Better: "lower", Src: srcDerived, On: onDES},
	{Name: "async.spec_frac", Unit: "ratio", Better: "higher", Src: srcStats, On: onPar},
	{Name: "async.spec_depth", Unit: "count", Better: "higher", Src: srcStats, On: onPar},
	{Name: "async.parallel_speedup", Unit: "ratio", Better: "higher", Src: srcDerived, On: onPar},
	{Name: "async.live_run_s.s0", Unit: "s", Better: "lower", Src: srcTraced, On: onLive},
	{Name: "async.live_run_s.sinf", Unit: "s", Better: "lower", Src: srcTraced, On: onLive},
	{Name: "async.live_makespan_s", Unit: "s", Better: "lower", Src: srcStats, On: onLive},
	{Name: "async.live_compute_s", Unit: "s", Better: "lower", Src: srcStats, On: onLive},
	{Name: "async.live_overlap", Unit: "ratio", Better: "higher", Src: srcDerived, On: onLive},
	{Name: "async.live_gate_wait_s", Unit: "s", Better: "lower", Src: srcStats, On: onLive},
	{Name: "async.live_steps", Unit: "count", Better: "lower", Src: srcStats, On: onLive},
	{Name: "workpool.steals", Unit: "count", Better: "lower", Src: srcStats, On: onLive},
	{Name: "workpool.dispatch_ns_per_item", Unit: "ns", Better: "lower", Src: srcReplay, On: onLive},

	// mapreduce, core: the synchronous engines of the paper's figure.
	{Name: "mapreduce.general_s", Unit: "s", Better: "lower", Src: srcTraced, On: onModes},
	{Name: "core.eager_s", Unit: "s", Better: "lower", Src: srcTraced, On: onModes},
	{Name: "mapreduce.sim_s_general", Unit: "s", Better: "lower", Src: srcStats, On: onModes},
	{Name: "core.sim_s_eager", Unit: "s", Better: "lower", Src: srcStats, On: onModes},
	{Name: "core.sim_speedup_eager_vs_general", Unit: "ratio", Better: "higher", Src: srcDerived, On: onModes},
	{Name: "async.sim_speedup_vs_eager", Unit: "ratio", Better: "higher", Src: srcDerived, On: onModes},
	{Name: "mapreduce.iters_general", Unit: "count", Better: "lower", Src: srcStats, On: onModes},
	{Name: "core.iters_eager", Unit: "count", Better: "lower", Src: srcStats, On: onModes},
	{Name: "mapreduce.allocs_general", Unit: "count", Better: "lower", Src: srcTraced, On: onModes},

	// trace, metrics, recovery, adapt: the four hook sets.
	{Name: "trace.events", Unit: "count", Better: "lower", Src: srcStats, On: onHooks},
	{Name: "trace.dropped", Unit: "count", Better: "lower", Src: srcStats, On: onHooks},
	{Name: "metrics.samples", Unit: "count", Better: "lower", Src: srcStats, On: onHooks},
	{Name: "recovery.crashes", Unit: "count", Better: "lower", Src: srcStats, On: onHooks},
	{Name: "recovery.checkpoints", Unit: "count", Better: "lower", Src: srcStats, On: onHooks},
	{Name: "recovery.lost_steps", Unit: "count", Better: "lower", Src: srcStats, On: onHooks},
	{Name: "adapt.bound_changes", Unit: "count", Better: "lower", Src: srcStats, On: onHooks},
	{Name: "async.hooks_overhead_frac", Unit: "ratio", Better: "lower", Src: srcDerived, On: onHooks},
	{Name: "metrics.sim_s_to_residual_1e-3", Unit: "s", Better: "lower", Src: srcStats, On: onDES},

	// bench: the harness's own bookkeeping.
	{Name: "bench.run_min_s", Unit: "s", Better: "lower", Src: srcUntraced},
	{Name: "bench.run_p25_s", Unit: "s", Better: "lower", Src: srcUntraced},
	{Name: "bench.run_med_s", Unit: "s", Better: "lower", Src: srcUntraced},
	{Name: "bench.run_p75_s", Unit: "s", Better: "lower", Src: srcUntraced},
	{Name: "bench.iterations", Unit: "count", Better: "higher", Src: srcUntraced},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Src: srcDerived},
}
