package sssp

import (
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/cluster"
	"repro/internal/graph"
)

func asyncCluster() *cluster.Cluster {
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	return cluster.New(cfg)
}

// Distance relaxation is monotone, so the asynchronous mode must land on
// the exact shortest paths at every staleness bound.
func TestAsyncMatchesDijkstraAtEveryStaleness(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	for _, s := range []int{0, 2, async.Unbounded} {
		res, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{Staleness: s})
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if !res.Stats.Converged {
			t.Fatalf("S=%d: not converged", s)
		}
		if s >= 0 && res.Stats.MaxLead > s {
			t.Fatalf("S=%d: staleness bound violated, lead %d", s, res.Stats.MaxLead)
		}
		checkAgainstDijkstra(t, g, res.Dist, 0)
	}
}

func TestAsyncMatchesGeneralExactly(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 6)
	gen, err := Run(engine(), subs, Config{Source: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asyncCluster(), subs, Config{Source: 3}, async.Options{Staleness: 1})
	if err != nil {
		t.Fatal(err)
	}
	for u := range gen.Dist {
		if gen.Dist[u] != res.Dist[u] {
			t.Fatalf("node %d: general %g async %g", u, gen.Dist[u], res.Dist[u])
		}
	}
}

func TestAsyncDeterministicReplay(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	run := func() *AsyncResult {
		res, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{Staleness: 0})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Duration != b.Stats.Duration || a.Stats.Steps != b.Stats.Steps ||
		a.Stats.Publishes != b.Stats.Publishes {
		t.Fatalf("replay diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestAsyncFasterThanEager(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	eag, err := Run(engine(), subs, Config{Source: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration >= eag.Stats.Duration {
		t.Fatalf("async %v not faster than eager %v", res.Stats.Duration, eag.Stats.Duration)
	}
}

// undoRig opens the adapter to asynctest.CheckUndo: next is each sweep's
// own buffer and gets poisoned. The sweep cap leaves a frontier behind
// for the stale steps to work on.
func undoRig(t *testing.T) (func() asynctest.UndoWorkload[[]float64], func(asynctest.UndoWorkload[[]float64], int)) {
	subs := subgraphs(t, smallGraph(), 8)
	fresh := func() asynctest.UndoWorkload[[]float64] {
		w, err := buildAsyncWorkload(subs, Config{Source: 0, MaxLocalIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return fresh, func(w asynctest.UndoWorkload[[]float64], p int) {
		st := w.(*asyncWorkload).states[p]
		st.next = st.next[:cap(st.next)]
		for i := range st.next {
			st.next[i] = -1
		}
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

func TestAsyncValidation(t *testing.T) {
	if _, err := RunAsync(asyncCluster(), nil, Config{}, async.Options{}); err == nil {
		t.Fatal("no partitions accepted")
	}
	g := smallGraph()
	subs := subgraphs(t, g, 2)
	if _, err := RunAsync(asyncCluster(), subs, Config{Source: -1}, async.Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	unweighted := subgraphs(t, graph.MustGenerate(graph.GraphAConfig().Scaled(1000)), 2)
	if _, err := RunAsync(asyncCluster(), unweighted, Config{Source: 0}, async.Options{}); err == nil {
		t.Fatal("unweighted graph accepted")
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
		g.AssignUniformWeights(1, 10, 3)
		subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 1, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{}); err != nil {
			t.Fatalf("well-formed sub-graphs rejected: %v", err)
		}
		c.mangle(subs)
		if _, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{}); err == nil || !strings.HasPrefix(err.Error(), "sssp: graph: ") {
			t.Errorf("%s: error %v, want one from the exchange plan", c.name, err)
		}
	}
}
