package partition

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/stats"
)

// buildWGraphOracle is buildWGraph as it stood before symmetrize: grow a
// [][]NodeID adjacency by append, sort and deduplicate every row, copy into
// CSR, then weigh. Tests compare the production routine against it; it is
// not a second production path.
func buildWGraphOracle(g *graph.Graph) *wgraph {
	n := g.NumNodes()
	adj := make([][]int32, n)
	for u, out := range g.Out {
		for _, v := range out {
			if int32(u) == v {
				continue
			}
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], int32(u))
		}
	}
	w := &wgraph{xadj: make([]int32, n+1)}
	for u := range adj {
		slices.Sort(adj[u])
		w.adjncy = append(w.adjncy, slices.Compact(adj[u])...)
		w.xadj[u+1] = int32(len(w.adjncy))
	}
	w.adjwgt = make([]int32, len(w.adjncy))
	for u := 0; u < n; u++ {
		for i := w.xadj[u]; i < w.xadj[u+1]; i++ {
			w.adjwgt[i] = 1
			if len(w.adjncy) <= exactWeightLimit {
				v := w.adjncy[i]
				w.adjwgt[i] = int32(count(g.Out[u], v) + count(g.Out[v], int32(u)))
			}
		}
	}
	return w
}

func count(a []int32, x int32) int {
	c := 0
	for _, y := range a {
		if y == x {
			c++
		}
	}
	return c
}

func sameWGraph(a, b *wgraph) bool {
	return slices.Equal(a.xadj, b.xadj) && slices.Equal(a.adjncy, b.adjncy) &&
		slices.Equal(a.adjwgt, b.adjwgt)
}

// messyGraph draws a small graph with everything the generator never
// emits: self-loops, duplicate edges, mutual pairs and isolated nodes.
func messyGraph(rng *stats.RNG, n int) *graph.Graph {
	g := &graph.Graph{Out: make([][]graph.NodeID, n)}
	for e := rng.Intn(4 * n); e > 0; e-- {
		u, v := rng.Intn(n), rng.Intn(n)
		g.Out[u] = append(g.Out[u], graph.NodeID(v))
		switch rng.Intn(4) {
		case 0:
			g.Out[u] = append(g.Out[u], graph.NodeID(v)) // duplicate
		case 1:
			g.Out[v] = append(g.Out[v], graph.NodeID(u)) // mutual
		}
	}
	return g
}

func TestBuildWGraphMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(17)
	for i := 0; i < 300; i++ {
		g := messyGraph(rng, 1+rng.Intn(40))
		if got, want := mustWGraph(t, g), buildWGraphOracle(g); !sameWGraph(got, want) {
			t.Fatalf("out=%v:\n got %+v\nwant %+v", g.Out, got, want)
		}
	}
	// Generated graphs either side of exactWeightLimit.
	for _, scale := range []int{56, 16} {
		g := testGraph(t, scale)
		got, want := mustWGraph(t, g), buildWGraphOracle(g)
		if !sameWGraph(got, want) {
			t.Fatalf("Graph A / %d differs from the oracle", scale)
		}
		if exact := len(got.adjncy) <= exactWeightLimit; exact != (scale == 56) {
			t.Fatalf("Graph A / %d has %d entries: wrong side of exactWeightLimit", scale, len(got.adjncy))
		}
	}
}

func TestSymmetrizeSymmetricDedup(t *testing.T) {
	// A mutual pair 0<->1 with a duplicate, plus a self-loop.
	g := &graph.Graph{Out: [][]graph.NodeID{{1, 1, 0}, {0}, {}}}
	w := mustWGraph(t, g)
	if !slices.Equal(w.xadj, []int32{0, 1, 2, 2}) || !slices.Equal(w.adjncy, []int32{1, 0}) {
		t.Fatalf("xadj %v adjncy %v, want rows [1] [0] []", w.xadj, w.adjncy)
	}
	if !slices.Equal(w.adjwgt, []int32{3, 3}) { // 0->1 twice, 1->0 once
		t.Fatalf("adjwgt %v, want [3 3]", w.adjwgt)
	}
}

// TestSymmetrizeRowsSortedProperty: on arbitrary edge lists every row is
// strictly ascending (sorted, deduplicated), free of its own vertex, and
// mirrored at the other endpoint.
func TestSymmetrizeRowsSortedProperty(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		const n = 24
		g := &graph.Graph{Out: make([][]graph.NodeID, n)}
		for _, e := range raw {
			g.Out[e[0]%n] = append(g.Out[e[0]%n], graph.NodeID(e[1]%n))
		}
		xadj, adjncy, err := symmetrize(g)
		if err != nil {
			return false
		}
		for u := int32(0); u < n; u++ {
			row := adjncy[xadj[u]:xadj[u+1]]
			for i, v := range row {
				if v == u || (i > 0 && v <= row[i-1]) {
					return false
				}
				if _, ok := slices.BinarySearch(adjncy[xadj[v]:xadj[v+1]], u); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPartitionMatchesSequential calls Partition on one graph
// from several goroutines at once, each with its own seed and method, and
// expects what the same calls return one after the other. Run under
// -race -cpu 1,4: bestInitial starts a goroutine of its own.
func TestConcurrentPartitionMatchesSequential(t *testing.T) {
	g := testGraph(t, 56)
	type call struct {
		k    int
		opts Options
	}
	var calls []call
	for seed := uint64(1); seed <= 4; seed++ {
		calls = append(calls,
			call{8, Options{Seed: seed}},
			call{13, Options{Seed: seed, Method: BFS}})
	}
	want := make([][]int32, len(calls))
	for i, c := range calls {
		a, err := Partition(g, c.k, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a.Parts
	}
	got := make([][]int32, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := Partition(g, c.k, c.opts)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = a.Parts
		}()
	}
	wg.Wait()
	for i := range calls {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("call %d (%+v): concurrent result differs from sequential", i, calls[i])
		}
	}
}
