package sssp

import (
	"container/heap"
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

func smallGraph() *graph.Graph {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(140)) // 2000 nodes
	g.AssignUniformWeights(1, 100, 42)
	return g
}

func subgraphs(t *testing.T, g *graph.Graph, k int) []*graph.SubGraph {
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

// dijkstra computes ground-truth distances with a binary heap.
func dijkstra(g *graph.Graph, src graph.NodeID) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &nodeHeap{{int32(src), 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		if it.d > dist[it.v] {
			continue
		}
		for i, w := range g.Out[it.v] {
			nd := it.d + g.Weights[it.v][i]
			if nd < dist[w] {
				dist[w] = nd
				heap.Push(pq, heapItem{w, nd})
			}
		}
	}
	return dist
}

type heapItem struct {
	v int32
	d float64
}
type nodeHeap []heapItem

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *nodeHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

func checkAgainstDijkstra(t *testing.T, g *graph.Graph, got []float64, src graph.NodeID) {
	t.Helper()
	want := dijkstra(g, src)
	for u := range want {
		wi, gi := math.IsInf(want[u], 1), math.IsInf(got[u], 1)
		if wi != gi {
			t.Fatalf("node %d reachability mismatch: want %v got %v", u, want[u], got[u])
		}
		if wi {
			continue
		}
		if math.Abs(want[u]-got[u]) > 1e-9 {
			t.Fatalf("node %d distance %g, want %g", u, got[u], want[u])
		}
	}
}

func TestGeneralMatchesDijkstra(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	res, err := Run(engine(), subs, Config{Source: 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstDijkstra(t, g, res.Dist, 0)
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
}

// TestEagerMatchesDijkstra: eager SSSP is exact with local sweeps
// uncapped and capped, where a task can end with its frontier unfinished.
func TestEagerMatchesDijkstra(t *testing.T) {
	g := smallGraph()
	for _, k := range []int{1, 4, 8, 16} {
		subs := subgraphs(t, g, k)
		for _, maxLocal := range []int{0, 1, 3} {
			res, err := Run(engine(), subs, Config{Source: 0, MaxLocalIters: maxLocal}, true)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstDijkstra(t, g, res.Dist, 0)
		}
	}
}

func TestEagerFewerGlobalIterations(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 4)
	gen, err := Run(engine(), subs, Config{Source: 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	eag, err := Run(engine(), subs, Config{Source: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if eag.Stats.GlobalIterations >= gen.Stats.GlobalIterations {
		t.Fatalf("eager %d iterations, general %d",
			eag.Stats.GlobalIterations, gen.Stats.GlobalIterations)
	}
	if eag.Stats.Duration >= gen.Stats.Duration {
		t.Fatalf("eager %v, general %v", eag.Stats.Duration, gen.Stats.Duration)
	}
}

func TestDifferentSources(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	for _, src := range []graph.NodeID{1, 42, 1999} {
		res, err := Run(engine(), subs, Config{Source: src}, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist[src] != 0 {
			t.Fatalf("source %d distance %g", src, res.Dist[src])
		}
		checkAgainstDijkstra(t, g, res.Dist, src)
		// State must not leak between runs on shared sub-graphs: re-run
		// with the same source and compare.
		res2, err := Run(engine(), subs, Config{Source: src}, true)
		if err != nil {
			t.Fatal(err)
		}
		for u := range res.Dist {
			if res.Dist[u] != res2.Dist[u] {
				t.Fatal("second run on same sub-graphs differs (state leak)")
			}
		}
	}
}

func TestValidation(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 2)
	if _, err := Run(engine(), nil, Config{}, false); err == nil {
		t.Error("empty partitions accepted")
	}
	if _, err := Run(engine(), subs, Config{Source: -1}, false); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := Run(engine(), subs, Config{Source: graph.NodeID(g.NumNodes())}, false); err == nil {
		t.Error("out-of-range source accepted")
	}
	for _, eager := range []bool{false, true} {
		if _, err := Run(engine(), subs, Config{Source: 0, MaxLocalIters: -1}, eager); err == nil || !strings.Contains(err.Error(), "-1") {
			t.Errorf("negative MaxLocalIters (eager %v): got %v, want an error naming -1", eager, err)
		}
	}
	unweighted := graph.MustGenerate(graph.GraphAConfig().Scaled(1000))
	a, _ := partition.Partition(unweighted, 2, partition.Options{})
	usubs, _ := graph.BuildSubGraphs(unweighted, a.Parts, a.K)
	if _, err := Run(engine(), usubs, Config{Source: 0}, false); err == nil {
		t.Error("unweighted graph accepted")
	}
}

// TestRejectsMalformedNodeIDs: every entry point checks that node ids are
// dense, each listed by one partition (graph.CheckIDs), and returns an
// error, not a panic or distances for a node no partition lists.
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
			{"general", func(subs []*graph.SubGraph) error { _, err := Run(engine(), subs, Config{}, false); return err }},
			{"eager", func(subs []*graph.SubGraph) error { _, err := Run(engine(), subs, Config{}, true); return err }},
			{"async", func(subs []*graph.SubGraph) error {
				_, err := RunAsync(asynctest.QuietCluster(), subs, Config{}, async.Options{})
				return err
			}},
		} {
			// Nodes 0, 1 | 2, 3: edges 0->2, 1->2 and 2->0 cross; 3 is isolated.
			g := &graph.Graph{Out: [][]graph.NodeID{{1, 2}, {2}, {0}, {}}}
			g.AssignUniformWeights(1, 10, 3)
			subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 1, 1}, 2)
			if err != nil {
				t.Fatal(err)
			}
			c.mangle(subs)
			if err := entry.run(subs); err == nil || !strings.HasPrefix(err.Error(), "sssp: graph: node") {
				t.Errorf("%s, %s: error %v, want one naming a node", c.name, entry.name, err)
			}
		}
	}
}

func TestUnreachableNodesStayInfinite(t *testing.T) {
	// A graph with an unreachable island: 0->1, island {2,3}.
	g := &graph.Graph{Out: [][]graph.NodeID{{1}, {}, {3}, {2}}}
	g.AssignUniformWeights(1, 2, 1)
	subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(engine(), subs, Config{Source: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Dist[2], 1) || !math.IsInf(res.Dist[3], 1) {
		t.Fatalf("island distances %v should be +Inf", res.Dist[2:4])
	}
	if res.Dist[0] != 0 || math.IsInf(res.Dist[1], 1) {
		t.Fatalf("reachable distances wrong: %v", res.Dist[:2])
	}
}
