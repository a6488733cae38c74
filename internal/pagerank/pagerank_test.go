package pagerank

import (
	"math"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

func engine() *mapreduce.Engine {
	return mapreduce.NewEngine(cluster.New(cluster.EC2LargeCluster()))
}

func subgraphs(t testing.TB, g *graph.Graph, k int) []*graph.SubGraph {
	t.Helper()
	a, err := partition.Partition(g, k, partition.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func smallGraph() *graph.Graph {
	return graph.MustGenerate(graph.GraphAConfig().Scaled(140)) // 2000 nodes
}

func TestGeneralMatchesReference(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	res, err := Run(engine(), subs, DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(g, 0.85, 1e-5)
	for u := range want {
		if d := math.Abs(res.Ranks[u] - want[u]); d > 1e-3 {
			t.Fatalf("node %d rank %g vs reference %g", u, res.Ranks[u], want[u])
		}
	}
	if !res.Stats.Converged {
		t.Fatal("general did not converge")
	}
}

func TestEagerMatchesGeneral(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	gen, err := Run(engine(), subs, DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	eag, err := Run(engine(), subs, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	for u := range gen.Ranks {
		if d := math.Abs(gen.Ranks[u] - eag.Ranks[u]); d > 1e-3 {
			t.Fatalf("node %d: general %g eager %g", u, gen.Ranks[u], eag.Ranks[u])
		}
	}
	if !eag.Stats.Converged {
		t.Fatal("eager did not converge")
	}
	// The paper's core claims on this workload.
	if eag.Stats.GlobalIterations >= gen.Stats.GlobalIterations {
		t.Fatalf("eager took %d global iterations, general %d",
			eag.Stats.GlobalIterations, gen.Stats.GlobalIterations)
	}
	if eag.Stats.Duration >= gen.Stats.Duration {
		t.Fatalf("eager took %v, general %v", eag.Stats.Duration, gen.Stats.Duration)
	}
	if eag.Stats.LocalIterations == 0 {
		t.Fatal("eager performed no local iterations")
	}
	// Two-level scheme has more total synchronizations (partial+global)
	// than the general scheme's global count (§II).
	if int64(eag.Stats.GlobalIterations)+eag.Stats.LocalIterations <= int64(gen.Stats.GlobalIterations) {
		t.Fatal("eager total synchronization count suspiciously low")
	}
}

func TestEagerLocalIterCapBoundsIterations(t *testing.T) {
	// MaxLocalIters=1 degrades eager to one local sweep per global
	// synchronization. Because the gmap's global emission uses the
	// post-sweep ranks, each global iteration carries one local update
	// plus the global reduction — so the capped run needs between half
	// and all of the general iteration count, and uncapped eager needs
	// no more than the capped run.
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	gen, err := Run(engine(), subs, DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxLocalIters = 1
	capped, err := Run(engine(), subs, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := gen.Stats.GlobalIterations/2-2, gen.Stats.GlobalIterations
	if it := capped.Stats.GlobalIterations; it < lo || it > hi {
		t.Fatalf("capped eager %d iterations, want within [%d,%d] of general %d",
			it, lo, hi, gen.Stats.GlobalIterations)
	}
	full, err := Run(engine(), subs, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.GlobalIterations > capped.Stats.GlobalIterations {
		t.Fatalf("uncapped eager %d iterations exceeds capped %d",
			full.Stats.GlobalIterations, capped.Stats.GlobalIterations)
	}
}

func TestSinglePartitionConvergesInTwoIterations(t *testing.T) {
	// k=1: the whole graph in one gmap; local MapReduce computes the
	// final ranks, so the driver needs one iteration to converge the
	// ranks and one to observe a zero delta.
	g := smallGraph()
	subs := subgraphs(t, g, 1)
	res, err := Run(engine(), subs, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GlobalIterations > 2 {
		t.Fatalf("k=1 eager took %d global iterations", res.Stats.GlobalIterations)
	}
	want := Reference(g, 0.85, 1e-5)
	for u := range want {
		if d := math.Abs(res.Ranks[u] - want[u]); d > 1e-3 {
			t.Fatalf("node %d rank %g vs reference %g", u, res.Ranks[u], want[u])
		}
	}
}

func TestRankConservation(t *testing.T) {
	// With the paper's non-normalized formula, total rank converges near
	// n - damping*danglingMass; sanity-check it stays within [n/2, 2n].
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	res, err := Run(engine(), subs, DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, r := range res.Ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		total += r
	}
	n := float64(g.NumNodes())
	if total < n/2 || total > 2*n {
		t.Fatalf("total rank %g implausible for n=%g", total, n)
	}
}

func TestConfigValidation(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 2)
	bad := []Config{
		{Damping: 0, Epsilon: 1e-5},
		{Damping: 1, Epsilon: 1e-5},
		{Damping: 0.85, Epsilon: 0},
		{Damping: math.NaN(), Epsilon: 1e-5},
		{Damping: 0.85, Epsilon: math.NaN()},
		{Damping: 0.85, Epsilon: 1e-5, MaxLocalIters: -1},
	}
	for i, cfg := range bad {
		for _, eager := range []bool{false, true} {
			if _, err := Run(engine(), subs, cfg, eager); err == nil {
				t.Errorf("bad config %d accepted (eager %v)", i, eager)
			}
		}
	}
	if _, err := Run(engine(), nil, DefaultConfig(), false); err == nil {
		t.Error("empty partitions accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := smallGraph()
	subs1 := subgraphs(t, g, 8)
	a, err := Run(engine(), subs1, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	subs2 := subgraphs(t, g, 8)
	b, err := Run(engine(), subs2, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.GlobalIterations != b.Stats.GlobalIterations || a.Stats.Duration != b.Stats.Duration {
		t.Fatal("runs not deterministic")
	}
	for u := range a.Ranks {
		if a.Ranks[u] != b.Ranks[u] {
			t.Fatal("ranks not bit-identical across runs")
		}
	}
}

// TestRejectsMalformedNodeIDs: every entry point checks that node ids are
// dense, each listed by one partition (graph.CheckIDs), and returns an
// error, not a panic or ranks for a node no partition lists.
func TestRejectsMalformedNodeIDs(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func(subs []*graph.SubGraph)
	}{
		{"node id out of range", func(subs []*graph.SubGraph) { subs[1].Nodes[1] = 9 }},
		{"node id repeated", func(subs []*graph.SubGraph) { subs[1].Nodes[1] = 2 }},
	} {
		for _, entry := range []struct {
			name string
			run  func(subs []*graph.SubGraph) error
		}{
			{"general", func(subs []*graph.SubGraph) error { _, err := Run(engine(), subs, DefaultConfig(), false); return err }},
			{"eager", func(subs []*graph.SubGraph) error { _, err := Run(engine(), subs, DefaultConfig(), true); return err }},
			{"async", func(subs []*graph.SubGraph) error {
				_, err := RunAsync(asynctest.QuietCluster(), subs, DefaultConfig(), async.Options{})
				return err
			}},
		} {
			// Nodes 0, 1 | 2, 3: edges 0->2, 1->2 and 2->0 cross; 3 is isolated.
			g := &graph.Graph{Out: [][]graph.NodeID{{1, 2}, {2}, {0}, {}}}
			subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 1, 1}, 2)
			if err != nil {
				t.Fatal(err)
			}
			c.mangle(subs)
			if err := entry.run(subs); err == nil || !strings.HasPrefix(err.Error(), "pagerank: graph: node") {
				t.Errorf("%s, %s: error %v, want one naming a node", c.name, entry.name, err)
			}
		}
	}
}
