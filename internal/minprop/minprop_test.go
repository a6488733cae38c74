package minprop

import (
	"math"
	"strings"
	"testing"

	"repro/internal/async/asynctest"
	"repro/internal/graph"
)

// distances and labels build the relaxation as the two front-ends do:
// sssp.RunAsync from source 0 and cc.RunAsync. Every test runs on both.
func distances(subs []*graph.SubGraph, maxLocalIters int) (*Workload[float64], error) {
	return New(subs, maxLocalIters, func(u graph.NodeID) (float64, float64, bool) { return math.Inf(1), 0, u == 0 })
}

func labels(subs []*graph.SubGraph, maxLocalIters int) (*Workload[graph.NodeID], error) {
	return New(subs, maxLocalIters, func(u graph.NodeID) (graph.NodeID, graph.NodeID, bool) { return u, u, true })
}

// spread weights g and deals its nodes round-robin into k parts.
func spread(t *testing.T, g *graph.Graph, k int) []*graph.SubGraph {
	g.AssignUniformWeights(1, 100, 42)
	parts := make([]int32, g.NumNodes())
	for u := range parts {
		parts[u] = int32(u % k)
	}
	subs, err := graph.BuildSubGraphs(g, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// checkUndo runs asynctest.CheckUndo on Graph A ÷140 in 8 parts: next is
// each sweep's own buffer and gets poisoned. The sweep cap leaves a
// frontier behind for the stale steps to work on.
func checkUndo[T Label](t *testing.T, build func([]*graph.SubGraph, int) (*Workload[T], error), ckpt bool) {
	subs := spread(t, graph.MustGenerate(graph.GraphAConfig().Scaled(140)), 8)
	fresh := func() asynctest.UndoWorkload[[]T] {
		w, err := build(subs, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	asynctest.CheckUndo(t, fresh, func(w asynctest.UndoWorkload[[]T], p int) {
		st := w.(*Workload[T]).parts[p]
		st.next = st.next[:cap(st.next)]
		for i := range st.next {
			st.next[i] = -1
		}
	}, ckpt)
}

// TestUndoRestoresStep: a step on stale snapshots, undone, leaves the
// partition exactly where a lone canonical step finds it.
func TestUndoRestoresStep(t *testing.T) {
	t.Run("sssp", func(t *testing.T) { checkUndo(t, distances, false) })
	t.Run("cc", func(t *testing.T) { checkUndo(t, labels, false) })
}

// TestUndoLeavesCheckpointIntact: undo keeps out of the checkpoint's
// memory, which a second Checkpoint caller would overwrite.
func TestUndoLeavesCheckpointIntact(t *testing.T) {
	t.Run("sssp", func(t *testing.T) { checkUndo(t, distances, true) })
	t.Run("cc", func(t *testing.T) { checkUndo(t, labels, true) })
}

// checkRejectsMalformed: sub-graph sets that break the exchange plan's
// three requirements (graph.BuildExchange) are errors, not panics or
// runs; so, when storedPlan says the relaxation reads the plans the
// sub-graphs carry, are plans edited after the build.
func checkRejectsMalformed[T Label](t *testing.T, build func([]*graph.SubGraph, int) (*Workload[T], error), storedPlan bool) {
	rows := map[string]func(subs []*graph.SubGraph){
		"node ids not dense":                                   func(subs []*graph.SubGraph) { subs[1].Nodes[1] = 9 },
		"cross in-edge source owned by nobody":                 func(subs []*graph.SubGraph) { subs[1].Nodes[1] = 2; subs[0].InRemote[0][0] = 3 },
		"cross in-edge source missing from its owner's border": func(subs []*graph.SubGraph) { subs[0].InRemote[0][0] = 3 },
		"node id repeated":                                     func(subs []*graph.SubGraph) { subs[1].Nodes[1] = 2 },
	}
	if storedPlan {
		rows["stored read's slot out of range"] = func(subs []*graph.SubGraph) { subs[1].Exchange.Slot[0] = 5 }
		rows["stored read's border index out of range"] = func(subs []*graph.SubGraph) { subs[1].Exchange.Idx[1] = 7 }
		rows["stored read's node out of range"] = func(subs []*graph.SubGraph) { subs[1].Exchange.Node[0] = 9 }
		rows["stored border entry out of range"] = func(subs []*graph.SubGraph) { subs[0].Exchange.Border[1] = 5 }
		rows["stored read of the wrong border node"] = func(subs []*graph.SubGraph) { subs[1].Exchange.Idx[0] = 1 }
	}
	for name, mangle := range rows {
		// Nodes 0, 1 | 2, 3: edges 0->2, 1->2 and 2->0 cross; 3 is isolated.
		g := &graph.Graph{Out: [][]graph.NodeID{{1, 2}, {2}, {0}, {}}}
		g.AssignUniformWeights(1, 10, 3)
		subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 1, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := build(subs, 0); err != nil {
			t.Fatalf("well-formed sub-graphs rejected: %v", err)
		}
		mangle(subs)
		if _, err := build(subs, 0); err == nil || !strings.HasPrefix(err.Error(), "graph: ") {
			t.Errorf("%s: error %v, want one from the exchange plan", name, err)
		}
	}
}

func TestAsyncRejectsMalformedSubGraphs(t *testing.T) {
	t.Run("sssp", func(t *testing.T) { checkRejectsMalformed(t, distances, true) })
	t.Run("cc", func(t *testing.T) { checkRejectsMalformed(t, labels, false) })
}
