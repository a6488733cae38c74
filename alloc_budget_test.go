//go:build !race

package main

import (
	"runtime"
	"testing"

	"repro/internal/adapt"
	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// budgetOps is how many runs one measurement averages over: the
// thresholds were set on `go test -bench -benchtime 3x` readings.
const budgetOps = 3

// TestAllocBudgets holds the allocation budgets of the async runtime's
// hot paths and of the paper's three modes: heap allocations per run, each
// row on the inputs and against the threshold scripts/alloc_guard.sh
// held it to before the budgets moved here. Every row but the live one
// is deterministic, so the count is stable across machines; the
// thresholds leave headroom for runtime and GC bookkeeping. Three more
// budgets live beside the code they bound: TestEagerSteadyStateAllocs
// and TestGeneralSteadyStateAllocs in internal/pagerank,
// TestDESPublishPathAllocFree in internal/async.
//
// Allocations are runtime.MemStats.Mallocs deltas, as bench/ counts
// them, not testing.AllocsPerRun: that pins GOMAXPROCS to 1 and would
// leave the speculating and live pools one goroutine — a different
// program from the one the thresholds were set on. The race detector
// allocates on its own, hence the build tag.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine workloads end to end")
	}
	ml := []partition.Method{partition.Multilevel}
	subs := func(scale, k int) *harness.Inputs {
		return &harness.Inputs{Subs: buildPRFixture(t, scale, ml, k).subs["multilevel"]}
	}
	big, small := subs(4, 16), subs(benchScale, 16) // Graph A ÷4 and ÷16, 16 parts
	pts, err := kmeans.GenerateCensus(kmeans.DefaultCensusConfig().Scaled(2))
	if err != nil {
		t.Fatal(err)
	}
	census := &harness.Inputs{Points: pts, Parts: 13, Threshold: 0.01}

	ec2 := cluster.EC2LargeCluster()
	spec := async.Options{Staleness: harness.DefaultStaleness, Executor: async.Parallel}
	crashy := *harness.NewSuite(benchScale).RecoveryCluster(small)
	crashy.CrashMTTF = simtime.Second
	live := *ec2
	live.LiveNetScale = 0.02
	unsampled, err := harness.PageRank.Async(ec2, big, spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, row := range []struct {
		name   string
		limit  uint64
		w      *harness.Workload
		preset *cluster.Config
		in     *harness.Inputs
		opt    async.Options
		// attach, when set, gives each run its own recorder or sampler.
		attach func(*async.Options)
		// modes marks the row that also runs general and eager and, as
		// the guard's benchmark did, builds its graph and partitions
		// inside the measurement, once.
		modes bool
	}{
		// The crash-free speculated step path (over nine tenths of the
		// steps are kept speculations): ~1.3K. The fault model, the
		// adaptive controller, the recorder and the sampler must stay
		// inert on it.
		{name: "pagerank/parallel", limit: 2500, w: harness.PageRank, preset: ec2, in: big, opt: spec},
		// Crashes, checkpoints, restore + replay all active: ~1.6K. The
		// journal and checkpoint bookkeeping allocates nothing per step.
		{name: "recovery/mttf=1s", limit: 3500, w: harness.PageRank, preset: &crashy, in: small,
			opt: async.Options{Staleness: harness.DefaultStaleness, Checkpoint: recovery.EverySteps(8)}},
		// The per-worker controller changing bounds throughout, on the
		// parallel executor and the cross-rack preset: ~1.3K — run-level
		// state only, never an allocation per decision.
		{name: "adaptive/aimd", limit: 2500, w: harness.PageRank, preset: cluster.EC2CrossRackCluster(), in: small,
			opt: async.Options{Staleness: harness.DefaultStaleness, Executor: async.Parallel, Adapt: adapt.AIMDDefault()}},
		// K-Means' flat accumulator buffers: ~0.7K (8.3K before them).
		{name: "kmeans/parallel", limit: 2500, w: harness.KMeans, preset: ec2, in: census, opt: spec},
		// CC's CSR reverse adjacency and arena-carved publishes: ~1.5K
		// (240K before them).
		{name: "cc/parallel", limit: 2500, w: harness.CC, preset: ec2, in: big, opt: spec},
		// The three modes on Graph A ÷16 in 8 parts: general and eager as
		// pagerank.Run's global iterations, which emit no records, and
		// async on the DES. ~3.8K a run with a third of the fixture built
		// once per measurement; the threshold was set at ~48.5K, when
		// general and eager ran as jobs through the engine (14.7M before
		// slots).
		{name: "modes/pagerank", limit: 55000, w: harness.PageRank, preset: ec2, modes: true,
			opt: async.Options{Staleness: harness.DefaultStaleness}},
		// The live executor's lockstep path, gate/park/wake maximally
		// exercised: ~1.2K, all of it run set-up. Live runs are not
		// deterministic, so the threshold carries headroom for step-count
		// variance across real interleavings.
		{name: "live/S=0", limit: 3000, w: harness.PageRank, preset: &live, in: small,
			opt: async.Options{Staleness: 0, Executor: async.Live, Workers: 4}},
		// The first row with the event recorder attached, every hook
		// firing into the ring: the ring is the only extra allocation.
		{name: "pagerank/parallel/traced", limit: 2750, w: harness.PageRank, preset: ec2, in: big, opt: spec,
			attach: func(o *async.Options) { o.Trace = trace.NewRecorder(trace.DefaultCapacity) }},
		// The first row with the sampler attached on a 64-tick grid: the
		// ring and the residual cache are the only extra allocations.
		{name: "pagerank/parallel/sampled", limit: 2750, w: harness.PageRank, preset: ec2, in: big, opt: spec,
			attach: func(o *async.Options) { o.Series = metrics.NewSeries(unsampled.Stats.Duration/64, 0) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := func(n int) {
				in := row.in
				if row.modes {
					in = subs(benchScale, 8)
				}
				for i := 0; i < n; i++ {
					if row.modes {
						for _, eager := range []bool{false, true} {
							if _, err := row.w.Sync(row.preset, in, eager); err != nil {
								t.Fatal(err)
							}
						}
					}
					opt := row.opt
					if row.attach != nil {
						row.attach(&opt)
					}
					if _, err := row.w.Async(row.preset, in, opt); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(1) // warm pools, as the benchmark's first b.N = 1 pass did
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(budgetOps)
			runtime.ReadMemStats(&after)
			allocs := (after.Mallocs - before.Mallocs) / budgetOps
			t.Logf("%d allocs/run, budget %d", allocs, row.limit)
			if allocs > row.limit {
				t.Errorf("%d allocs/run exceeds the committed budget %d", allocs, row.limit)
			}
		})
	}
}
