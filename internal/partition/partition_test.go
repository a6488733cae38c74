package partition

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func testGraph(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	return graph.MustGenerate(graph.GraphAConfig().Scaled(scale))
}

// mustWGraph is buildWGraph on a graph known to be well formed.
func mustWGraph(t testing.TB, g *graph.Graph) *wgraph {
	t.Helper()
	w, err := buildWGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAllMethodsProduceValidAssignments(t *testing.T) {
	g := testGraph(t, 56) // 5000 nodes
	for _, m := range []Method{Multilevel, BFS, Range, Hash} {
		for _, k := range []int{2, 7, 50, 313} {
			a, err := Partition(g, k, Options{Method: m, Seed: 3})
			if err != nil {
				t.Fatalf("%v k=%d: %v", m, k, err)
			}
			if a.K != k {
				t.Fatalf("%v k=%d: got K=%d", m, k, a.K)
			}
			if err := a.Validate(g.NumNodes()); err != nil {
				t.Fatalf("%v k=%d: %v", m, k, err)
			}
		}
	}
}

func TestDegenerateK(t *testing.T) {
	g := testGraph(t, 560) // 500 nodes
	n := g.NumNodes()

	one, err := Partition(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if one.K != 1 || one.EdgeCut(g) != 0 {
		t.Fatalf("k=1 should have zero cut, got K=%d cut=%d", one.K, one.EdgeCut(g))
	}

	// k >= n: every node its own partition (paper: "Eager PageRank
	// becomes General PageRank").
	all, err := Partition(g, n+10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if all.K != n {
		t.Fatalf("k>n gave K=%d, want %d", all.K, n)
	}
	if all.EdgeCut(g) != g.NumEdges() {
		// Self loops are absent, so every edge must cross.
		t.Fatalf("singleton partitions cut %d of %d edges", all.EdgeCut(g), g.NumEdges())
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := Partition(&graph.Graph{}, 4, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

// TestPartitionRejectsMalformedGraph: an edge whose endpoint is not a
// vertex of the graph is an error from the methods that read the edges,
// not an index panic in the symmetrization.
func TestPartitionRejectsMalformedGraph(t *testing.T) {
	for _, bad := range []graph.NodeID{-1, 4, math.MaxInt32, math.MinInt32} {
		g := &graph.Graph{Out: [][]graph.NodeID{{1, 2}, {2, bad}, {0}, {0}}}
		for _, m := range []Method{Multilevel, BFS} {
			_, err := Partition(g, 2, Options{Method: m})
			if err == nil || !strings.HasPrefix(err.Error(), "partition: edge (1,") {
				t.Errorf("%v, endpoint %d: error %v, want one naming the edge", m, bad, err)
			}
		}
	}
}

func TestMultilevelBeatsHash(t *testing.T) {
	g := testGraph(t, 28) // 10000 nodes
	for _, k := range []int{4, 16, 64} {
		ml, err := Partition(g, k, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hash, err := Partition(g, k, Options{Method: Hash, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if mlCut, hashCut := ml.EdgeCut(g), hash.EdgeCut(g); mlCut >= hashCut {
			t.Fatalf("k=%d: multilevel cut %d not better than hash cut %d", k, mlCut, hashCut)
		}
	}
}

func TestMultilevelBalance(t *testing.T) {
	g := testGraph(t, 28)
	for _, k := range []int{4, 32} {
		a, err := Partition(g, k, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// GGGP + leftover attachment can exceed the target slightly;
		// enforce a sane envelope rather than the strict bound.
		if imb := a.Imbalance(); imb > 1.6 {
			t.Fatalf("k=%d imbalance %.2f too high", k, imb)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t, 56)
	a, _ := Partition(g, 16, Options{Seed: 5})
	b, _ := Partition(g, 16, Options{Seed: 5})
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestEdgeCutMatchesBruteForce(t *testing.T) {
	g := &graph.Graph{Out: [][]graph.NodeID{{1, 2}, {2}, {0}, {0}}}
	a := &Assignment{Parts: []int32{0, 0, 1, 1}, K: 2}
	// Crossing edges: 0->2, 1->2, 2->0, 3->0 = 4.
	if got := a.EdgeCut(g); got != 4 {
		t.Fatalf("EdgeCut = %d, want 4", got)
	}
	sizes := a.Sizes()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("Sizes = %v", sizes)
	}
	if a.Imbalance() != 1 {
		t.Fatalf("Imbalance = %g, want 1", a.Imbalance())
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	a := &Assignment{Parts: []int32{0, 0, 2}, K: 2}
	if err := a.Validate(3); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	b := &Assignment{Parts: []int32{0, 0, 0}, K: 2}
	if err := b.Validate(3); err == nil {
		t.Fatal("empty partition accepted")
	}
	c := &Assignment{Parts: []int32{0, 1}, K: 2}
	if err := c.Validate(3); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestRefineNeverWorsensCut(t *testing.T) {
	g := testGraph(t, 56)
	w := mustWGraph(t, g)
	parts, err := growPartition(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := cutOf(w, parts)
	refine(w, parts, 8)
	after := cutOf(w, parts)
	if after > before {
		t.Fatalf("refinement worsened cut: %d -> %d", before, after)
	}
}

func TestGainHeapOrdering(t *testing.T) {
	f := func(raw []int16) bool {
		h := &gainHeap{}
		for i, v := range raw {
			h.push(gainItem{v: int32(i), gain: int32(v)})
		}
		last := int32(math.MaxInt32)
		for h.len() > 0 {
			it := h.pop()
			if it.gain > last {
				return false
			}
			last = it.gain
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashAndRangeShapes(t *testing.T) {
	n, k := 103, 7
	h := hashParts(n, k)
	r := rangeParts(n, k)
	if err := h.Validate(n); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(n); err != nil {
		t.Fatal(err)
	}
	// Range pieces are contiguous.
	for i := 1; i < n; i++ {
		if r.Parts[i] < r.Parts[i-1] {
			t.Fatal("range partition not monotone")
		}
	}
	// Hash round-robins.
	if h.Parts[0] != 0 || h.Parts[1] != 1 || h.Parts[k] != 0 {
		t.Fatal("hash partition not round robin")
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{Multilevel: "multilevel", BFS: "bfs", Range: "range", Hash: "hash", Method(42): "method(42)"}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(m), got, want)
		}
	}
}
