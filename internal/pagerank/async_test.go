package pagerank

import (
	"math"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/simtime"
)

func asyncCluster() *cluster.Cluster {
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	return cluster.New(cfg)
}

func TestAsyncMatchesReference(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	res, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("async did not converge")
	}
	want := referenceRanks(g, 0.85, 1e-5)
	for u := range want {
		if d := math.Abs(res.Ranks[u] - want[u]); d > 1e-3 {
			t.Fatalf("node %d rank %g vs reference %g", u, res.Ranks[u], want[u])
		}
	}
}

// TestAsyncQualityOnBenchmarkInputs holds async PageRank's largest rank
// error on the benchmark's pagerank_des inputs — Graph A ÷4 in 16
// multilevel parts, the EC2 preset, S = 4, the DES — at or below what the
// Jacobi sweep at q = 5 left, against the fixed point (power iteration to
// 1e-12). Measured (Gauss-Seidel, q = 3): seed 1 1.25e-5 against the
// bound 2.87e-5 (2.3× headroom), seed 2 7.08e-6 against 2.74e-5 (3.9×).
func TestAsyncQualityOnBenchmarkInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions and solves a 70 000-node graph")
	}
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(4))
	want := referenceRanks(g, 0.85, 1e-12)
	for _, c := range []struct {
		seed  uint64
		bound float64
	}{{1, 2.87e-5}, {2, 2.74e-5}} {
		a, err := partition.Partition(g, 16, partition.Options{Method: partition.Multilevel, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.EC2LargeCluster()
		cfg.Seed = c.seed
		res, err := RunAsync(cluster.New(cfg), subs, DefaultConfig(), async.Options{Staleness: 4})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for u := range want {
			worst = max(worst, math.Abs(res.Ranks[u]-want[u]))
		}
		t.Logf("seed %d: largest rank error %.3g (bound %.3g)", c.seed, worst, c.bound)
		if !res.Stats.Converged || !(worst <= c.bound) {
			t.Errorf("seed %d: converged %v, largest rank error %.3g, bound %.3g", c.seed, res.Stats.Converged, worst, c.bound)
		}
	}
}

func TestAsyncStalenessSweepConverges(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	want := referenceRanks(g, 0.85, 1e-5)
	for _, s := range []int{0, 1, 8, async.Unbounded} {
		res, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{Staleness: s})
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if !res.Stats.Converged {
			t.Fatalf("S=%d: not converged", s)
		}
		if s >= 0 && res.Stats.MaxLead > s {
			t.Fatalf("S=%d: staleness bound violated, lead %d", s, res.Stats.MaxLead)
		}
		for u := range want {
			if d := math.Abs(res.Ranks[u] - want[u]); d > 1e-3 {
				t.Fatalf("S=%d: node %d rank %g vs reference %g", s, u, res.Ranks[u], want[u])
			}
		}
	}
}

// TestAsyncZeroStalenessDeterministic: S=0 is the lockstep degeneration;
// replays must be bit-identical and agree with the eager fixed point.
func TestAsyncZeroStalenessDeterministic(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	run := func() *AsyncResult {
		res, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{Staleness: 0})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Duration != b.Stats.Duration || a.Stats.Steps != b.Stats.Steps {
		t.Fatalf("replay diverged: %v/%d vs %v/%d",
			a.Stats.Duration, a.Stats.Steps, b.Stats.Duration, b.Stats.Steps)
	}
	for u := range a.Ranks {
		if a.Ranks[u] != b.Ranks[u] {
			t.Fatalf("replay rank of %d diverged: %g vs %g", u, a.Ranks[u], b.Ranks[u])
		}
	}
	eag, err := Run(engine(), subs, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	for u := range eag.Ranks {
		if d := math.Abs(a.Ranks[u] - eag.Ranks[u]); d > 1e-3 {
			t.Fatalf("node %d: async(S=0) %g vs eager %g", u, a.Ranks[u], eag.Ranks[u])
		}
	}
}

// TestAsyncFasterThanEager: the headline claim — removing the global
// barrier beats even the partial-synchronization formulation in
// simulated time on the cloud cluster.
func TestAsyncFasterThanEager(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	eag, err := Run(engine(), subs, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration >= eag.Stats.Duration {
		t.Fatalf("async %v not faster than eager %v", res.Stats.Duration, eag.Stats.Duration)
	}
}

// undoRig opens the adapter to asynctest.CheckUndo: ghost is rebuilt by
// every step and gets poisoned. The contributions last from step to step,
// so an undo's Restore must rebuild them and they are left alone.
func undoRig(t *testing.T) (func() asynctest.UndoWorkload[[]float64], func(asynctest.UndoWorkload[[]float64], int)) {
	subs := subgraphs(t, smallGraph(), 8)
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	fresh := func() asynctest.UndoWorkload[[]float64] {
		w, _, err := buildAsyncWorkload(subs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return fresh, func(w asynctest.UndoWorkload[[]float64], p int) {
		poisonScratch(w.(*asyncWorkload).states[p])
	}
}

// TestUndoRestoresStep: a step on stale snapshots, undone, leaves the
// partition exactly where a lone canonical step finds it.
func TestUndoRestoresStep(t *testing.T) {
	fresh, poison := undoRig(t)
	asynctest.CheckUndo(t, fresh, poison, false)
}

// TestUndoLeavesCheckpointIntact: undo keeps out of the checkpoint's
// memory, which a second Checkpoint caller would overwrite.
func TestUndoLeavesCheckpointIntact(t *testing.T) {
	fresh, poison := undoRig(t)
	asynctest.CheckUndo(t, fresh, poison, true)
}

// TestAsyncAdaptiveConverges: the adaptive policies must land on the
// reference fixed point within the suite's usual tolerance — moving the
// bound mid-run changes the schedule, not the answer.
func TestAsyncAdaptiveConverges(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	want := referenceRanks(g, 0.85, 1e-5)
	for _, pol := range asynctest.AdaptivePolicies() {
		res, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{Adapt: pol})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if !res.Stats.Converged {
			t.Fatalf("%s: not converged", pol)
		}
		if res.Stats.MaxLead > res.Stats.StalenessMax {
			t.Fatalf("%s: lead %d exceeds the largest bound in force %d",
				pol, res.Stats.MaxLead, res.Stats.StalenessMax)
		}
		for u := range want {
			if d := math.Abs(res.Ranks[u] - want[u]); d > 1e-3 {
				t.Fatalf("%s: node %d rank %g vs reference %g", pol, u, res.Ranks[u], want[u])
			}
		}
	}
}

// TestAsyncCrashRecoveryConverges forces crashes into the stepping
// phase (negligible job launch, MTTF far below the run length) so
// recoveries genuinely replay lost steps, and requires the
// crashy run to still land on the reference fixed point: recovery must
// be invisible to convergence, only to time.
func TestAsyncCrashRecoveryConverges(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	cfg.JobOverhead = 50 * simtime.Millisecond
	cfg.TaskOverhead = 5 * simtime.Millisecond
	cfg.RestoreCost = 100 * simtime.Millisecond
	cfg.CheckpointCost = 10 * simtime.Millisecond
	clean, err := RunAsync(cluster.New(cfg), subs, DefaultConfig(), async.Options{Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.CrashMTTF = clean.Stats.Duration / 8
	res, err := RunAsync(cluster.New(cfg), subs, DefaultConfig(),
		async.Options{Staleness: 2, Checkpoint: recovery.EverySteps(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries == 0 || res.Stats.LostSteps == 0 {
		t.Fatalf("crashes missed the stepping phase (MTTF %v): %+v", cfg.CrashMTTF, res.Stats)
	}
	if res.Stats.Checkpoints == 0 || res.Stats.CheckpointTime <= 0 || res.Stats.RecoveryTime <= 0 {
		t.Fatalf("checkpoint/recovery accounting empty: %+v", res.Stats)
	}
	if !res.Stats.Converged {
		t.Fatal("crashy run did not converge")
	}
	if res.Stats.Duration <= clean.Stats.Duration {
		t.Fatalf("crashy run (%v) not slower than crash-free (%v)", res.Stats.Duration, clean.Stats.Duration)
	}
	want := referenceRanks(g, 0.85, 1e-5)
	for u := range want {
		if d := math.Abs(res.Ranks[u] - want[u]); d > 1e-3 {
			t.Fatalf("node %d rank %g vs reference %g after recovery", u, res.Ranks[u], want[u])
		}
	}
}

// TestAsyncParallelSpeculationPresets: speculation must not collapse on
// clusters whose publications become visible within microseconds. The
// HPC preset's share of steps satisfied by a kept speculation must stay
// within 20% of the EC2 preset's at the same scale, and the speculation
// depth (peak concurrently in-flight pre-executed steps — the usable
// wall-clock overlap) must fill the window on both, not degenerate to
// head-of-heap-only dispatch. Measured with two pool goroutines (window
// 6): EC2 273 of 302 steps kept (90%), 25 discarded; HPC 207 of 233 (89%),
// 11 discarded; depth 6 on both. (Four goroutines, window 12 of 8
// partitions: 79% on both, 62 and 49 discarded.)
func TestAsyncParallelSpeculationPresets(t *testing.T) {
	g := smallGraph()
	const parts = 8
	subs := subgraphs(t, g, parts)
	run := func(cfg *cluster.Config) *async.RunStats {
		res, err := RunAsync(cluster.New(cfg), subs, DefaultConfig(),
			async.Options{Staleness: 4, Executor: async.Parallel, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return res.Stats
	}
	ec2, hpc := run(cluster.EC2LargeCluster()), run(cluster.HPCCluster())
	if ec2.Speculated == 0 || hpc.Speculated == 0 {
		t.Fatalf("speculation inactive: ec2=%d hpc=%d", ec2.Speculated, hpc.Speculated)
	}
	// The two cost models converge in different numbers of steps, so the
	// comparable quantity is the speculated fraction of the run's own
	// steps: the HPC preset must stay within 20% of the EC2 preset's.
	frac := func(st *async.RunStats) float64 { return float64(st.Speculated) / float64(st.Steps) }
	if frac(hpc) < 0.8*frac(ec2) {
		t.Fatalf("HPC speculation collapsed: %d/%d steps speculated (%.1f%%), EC2 %d/%d (%.1f%%)",
			hpc.Speculated, hpc.Steps, 100*frac(hpc), ec2.Speculated, ec2.Steps, 100*frac(ec2))
	}
	for _, st := range []*async.RunStats{ec2, hpc} {
		if st.SpecDepth < parts/2 {
			t.Fatalf("speculation depth %d of %d partitions: the window never filled (ec2=%d hpc=%d)",
				st.SpecDepth, parts, ec2.SpecDepth, hpc.SpecDepth)
		}
	}
}

func TestAsyncValidation(t *testing.T) {
	if _, err := RunAsync(asyncCluster(), nil, DefaultConfig(), async.Options{}); err == nil {
		t.Fatal("no partitions accepted")
	}
	bad := DefaultConfig()
	bad.Damping = 2
	g := smallGraph()
	subs := subgraphs(t, g, 2)
	if _, err := RunAsync(asyncCluster(), subs, bad, async.Options{}); err == nil {
		t.Fatal("bad damping accepted")
	}
}

// TestAsyncRejectsMalformedSubGraphs: sub-graph sets that break the
// exchange plan's three requirements (graph.BuildExchange) are errors
// from this package, not panics.
func TestAsyncRejectsMalformedSubGraphs(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func(subs []*graph.SubGraph)
	}{
		{"node ids not dense", func(subs []*graph.SubGraph) { subs[1].Nodes[1] = 9 }},
		{"cross in-edge source owned by nobody", func(subs []*graph.SubGraph) { subs[1].Nodes[1] = 2; subs[0].InRemote[0][0] = 3 }},
		{"cross in-edge source missing from its owner's border", func(subs []*graph.SubGraph) { subs[0].InRemote[0][0] = 3 }},
	} {
		// Nodes 0, 1 | 2, 3: edges 0->2, 1->2 and 2->0 cross; 3 is isolated.
		g := &graph.Graph{Out: [][]graph.NodeID{{1, 2}, {2}, {0}, {}}}
		subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 1, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{}); err != nil {
			t.Fatalf("well-formed sub-graphs rejected: %v", err)
		}
		c.mangle(subs)
		if _, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{}); err == nil || !strings.HasPrefix(err.Error(), "pagerank: graph: ") {
			t.Errorf("%s: error %v, want one from the exchange plan", c.name, err)
		}
	}
}
