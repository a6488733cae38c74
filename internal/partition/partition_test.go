package partition

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/stats"
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
		a, err := Partition(g, k, Options{Seed: 1, MaxImbalance: 1.1})
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
	rng := stats.NewRNG(11)
	opts := Options{}.normalized()
	parts, err := growPartition(w, 8, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := cutOf(w, parts)
	refine(w, parts, 8, opts)
	after := cutOf(w, parts)
	if after > before {
		t.Fatalf("refinement worsened cut: %d -> %d", before, after)
	}
}

func TestCoarsenPreservesStructure(t *testing.T) {
	g := testGraph(t, 56)
	w := mustWGraph(t, g)
	coarse, cmap := coarsen(w, stats.NewRNG(3))
	if coarse == nil {
		t.Fatal("coarsening stalled on a healthy graph")
	}
	if coarse.n() >= w.n() {
		t.Fatalf("coarse graph not smaller: %d vs %d", coarse.n(), w.n())
	}
	// Vertex weight is conserved.
	if coarse.totalVWgt() != w.totalVWgt() {
		t.Fatalf("vertex weight changed: %d vs %d", coarse.totalVWgt(), w.totalVWgt())
	}
	// cmap is a valid surjection onto [0, coarse.n()).
	seen := make([]bool, coarse.n())
	for _, c := range cmap {
		if c < 0 || int(c) >= coarse.n() {
			t.Fatalf("cmap value %d out of range", c)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("coarse vertex %d has no fine members", c)
		}
	}
	// Each coarse vertex merges at most 2 fine vertices (matching).
	counts := make([]int, coarse.n())
	for _, c := range cmap {
		counts[c]++
		if counts[c] > 2 {
			t.Fatalf("coarse vertex %d has %d members", c, counts[c])
		}
	}
	// A partition of the coarse graph projects to the same cut on the
	// fine graph (cut preservation under contraction).
	parts := make([]int32, coarse.n())
	for i := range parts {
		parts[i] = int32(i % 2)
	}
	fineParts := make([]int32, w.n())
	for u := range fineParts {
		fineParts[u] = parts[cmap[u]]
	}
	if cutOf(coarse, parts) != cutOf(w, fineParts) {
		t.Fatalf("projected cut mismatch: coarse %d fine %d",
			cutOf(coarse, parts), cutOf(w, fineParts))
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

// TestMultilevelHierarchy drives the coarsen → bestInitial → project →
// refine loop, which Partition reaches only above directGrowLimit (400 000
// vertices: no graph this repository generates, Graph A at full scale is
// 280 000), by handing multilevel a limit Graph A ÷ 35 (8 000 vertices)
// crosses. Recorded cuts, seeds 1-4, beside the direct path's on the same
// graph: k = 8 hierarchy 7566, 7505, 7433, 7511 against 7472 direct;
// k = 25 hierarchy 20557, 20606, 20799, 20704 against 20663 — within 1.3 %
// either way, so a projection that scrambled the coarse assignment (a
// random 8-way cut of this graph is ~69 000) fails the 2× bound at once.
func TestMultilevelHierarchy(t *testing.T) {
	g := testGraph(t, 35)
	for _, k := range []int{8, 25} {
		run := func(seed uint64, limit int) *Assignment {
			a, err := multilevel(g, k, Options{Seed: seed}.normalized(), limit)
			if err != nil {
				t.Fatalf("k=%d seed %d: %v", k, seed, err)
			}
			return a
		}
		direct := run(1, directGrowLimit).EdgeCut(g)
		var first *Assignment
		differs := false
		for seed := uint64(1); seed <= 4; seed++ {
			a := run(seed, 1000)
			if err := a.Validate(g.NumNodes()); err != nil { // also: no part is empty
				t.Fatalf("k=%d seed %d: %v", k, seed, err)
			}
			if imb, max := a.Imbalance(), (Options{}).normalized().MaxImbalance; imb > max+1e-9 {
				t.Errorf("k=%d seed %d: imbalance %.4f above MaxImbalance %.2f", k, seed, imb, max)
			}
			if cut := a.EdgeCut(g); cut > 2*direct {
				t.Errorf("k=%d seed %d: hierarchy cuts %d edges, the direct path %d", k, seed, cut, direct)
			}
			if !slices.Equal(a.Parts, run(seed, 1000).Parts) {
				t.Errorf("k=%d seed %d: the assignment does not repeat", k, seed)
			}
			if first == nil {
				first = a
			} else if !slices.Equal(a.Parts, first.Parts) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("k=%d: four seeds gave one assignment; coarsening's visiting order is seeded", k)
		}
	}
}
