package graph

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
)

// buildExchangeOracle is the exchange-plan builder as the SSSP adapter
// had it before the three adapters shared BuildExchange: node lookups
// through maps — one for ownership, one per partition for border
// positions, one per reader for neighbor slots — extended with the
// connected-components adapter's border rule and out-edge reads. Tests
// compare the production builder against it; it is not a second
// production path.
func buildExchangeOracle(subs []*SubGraph, undirected bool) ([]Exchange, error) {
	owner := map[NodeID]int{}
	for p, s := range subs {
		for _, u := range s.Nodes {
			owner[u] = p
		}
	}
	borderIdx := make([]map[NodeID]int32, len(subs))
	xs := make([]Exchange, len(subs))
	for p, s := range subs {
		borderIdx[p] = map[NodeID]int32{}
		for li, u := range s.Nodes {
			if len(s.OutRemote[li]) > 0 || undirected && len(s.InRemote[li]) > 0 {
				borderIdx[p][u] = int32(len(xs[p].Border))
				xs[p].Border = append(xs[p].Border, int32(li))
			}
		}
	}
	for p, s := range subs {
		x := &xs[p]
		slotOf := map[int]int32{}
		for li := range s.Nodes {
			remotes := slices.Clone(s.InRemote[li])
			if undirected {
				remotes = append(remotes, s.OutRemote[li]...)
			}
			for _, remote := range remotes {
				q, ok := owner[remote]
				if !ok {
					return nil, fmt.Errorf("remote node %d has no owner", remote)
				}
				slot, ok := slotOf[q]
				if !ok {
					slot = int32(len(x.Neighbors))
					slotOf[q] = slot
					x.Neighbors = append(x.Neighbors, q)
				}
				bi, ok := borderIdx[q][remote]
				if !ok {
					return nil, fmt.Errorf("node %d not on partition %d's border", remote, q)
				}
				x.Slot = append(x.Slot, slot)
				x.Idx = append(x.Idx, bi)
				x.Node = append(x.Node, int32(li))
			}
		}
	}
	return xs, nil
}

// checkExchangeAgainstOracle builds the plans of well-formed sub-graphs
// both ways, directed and undirected, and reports any difference.
func checkExchangeAgainstOracle(t *testing.T, subs []*SubGraph) {
	t.Helper()
	nodes := 0
	for _, s := range subs {
		nodes += s.NumNodes()
	}
	for _, undirected := range []bool{false, true} {
		got, n, err := BuildExchange(subs, undirected)
		want, wantErr := buildExchangeOracle(subs, undirected)
		if err != nil || wantErr != nil {
			t.Fatalf("undirected=%v: error %v, oracle %v", undirected, err, wantErr)
		}
		if n != nodes || len(got) != len(subs) {
			t.Fatalf("undirected=%v: %d plans over %d nodes, want %d over %d", undirected, len(got), n, len(subs), nodes)
		}
		for p, w := range want {
			g := got[p]
			for _, f := range []struct {
				name      string
				got, want []int32
			}{{"Border", g.Border, w.Border}, {"Slot", g.Slot, w.Slot}, {"Idx", g.Idx, w.Idx}, {"Node", g.Node, w.Node}} {
				if !slices.Equal(f.got, f.want) {
					t.Fatalf("undirected=%v partition %d: %s = %v, want %v", undirected, p, f.name, f.got, f.want)
				}
			}
			if !slices.Equal(g.Neighbors, w.Neighbors) {
				t.Fatalf("undirected=%v partition %d: Neighbors = %v, want %v", undirected, p, g.Neighbors, w.Neighbors)
			}
		}
	}
}

func TestBuildExchangeMatchesNaive(t *testing.T) {
	g := MustGenerate(GraphAConfig().Scaled(35))
	subs, err := BuildSubGraphs(g, scatteredParts(g.NumNodes(), 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	checkExchangeAgainstOracle(t, subs)
	// The plan's contract with InRemote / InRemoteW: a directed plan's
	// reads are InRemote flattened in node order.
	xs, _, _ := BuildExchange(subs, false)
	for p, s := range subs {
		r := 0
		for li, srcs := range s.InRemote {
			for range srcs {
				if xs[p].Node[r] != int32(li) {
					t.Fatalf("partition %d: read %d goes to node %d, InRemote flattened says %d", p, r, xs[p].Node[r], li)
				}
				r++
			}
		}
		if r != len(xs[p].Node) {
			t.Fatalf("partition %d: %d reads, InRemote holds %d sources", p, len(xs[p].Node), r)
		}
	}
	// Shapes the generator never emits: self-loops, duplicate edges,
	// isolated nodes, single-node partitions.
	rng := stats.NewRNG(29)
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(40)
		g := messyGraph(rng, n, false)
		k := 1 + rng.Intn(n)
		if i%10 == 0 {
			k = n
		}
		subs, err := BuildSubGraphs(g, coveringParts(n, k, func() int { return rng.Intn(k) }), k)
		if err != nil {
			t.Fatal(err)
		}
		checkExchangeAgainstOracle(t, subs)
	}
}

// TestBuildExchangeAllocs bounds the heap allocations of one plan build
// over Graph A ÷4 in 16 partitions, PageRank's benchmark input: eight
// tables and slabs, where appending to every plan's arrays made 1 332
// (1 476 undirected) on these partitions. Every array is filled to its
// capacity. It counts runtime.MemStats.Mallocs deltas, as
// TestAllocBudgets does.
//
// Mallocs counts the runtime's own heap objects too. Starting an OS
// thread allocates five (its m, two goroutines and two profiling stacks,
// go1.24), and the scheduler starts one whenever a goroutine wakes with a
// P idle and no thread parked, as the collector's workers do: a thread
// started during the build took the count over the budget now and then.
// With one P, as testing.AllocsPerRun measures, a wake has no idle P to
// start a thread for; the forced collection keeps the first cycle's
// worker goroutines, which are allocated too, out of the count.
func TestBuildExchangeAllocs(t *testing.T) {
	const budget = 12
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := MustGenerate(GraphAConfig().Scaled(4))
	subs, err := BuildSubGraphs(g, scatteredParts(g.NumNodes(), 16), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, undirected := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		xs, _, err := BuildExchange(subs, undirected)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; n > budget {
			t.Errorf("undirected=%v: %d allocations, budget %d", undirected, n, budget)
		}
		for p, x := range xs {
			if len(x.Border) != cap(x.Border) || len(x.Neighbors) != cap(x.Neighbors) ||
				len(x.Slot) != cap(x.Slot) || len(x.Idx) != cap(x.Idx) || len(x.Node) != cap(x.Node) {
				t.Fatalf("undirected=%v partition %d: an array is not filled to its capacity", undirected, p)
			}
		}
	}
}

// TestBuildExchangeRejects: the three ways a sub-graph set can be
// malformed are errors, each naming what is wrong, never a panic.
func TestBuildExchangeRejects(t *testing.T) {
	build := func() []*SubGraph {
		subs, err := BuildSubGraphs(testGraph(), []int32{0, 0, 1, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return subs
	}
	for _, c := range []struct {
		name, want string
		mangle     func(subs []*SubGraph)
	}{
		{"node id beyond the node count", "outside [0,4)", func(subs []*SubGraph) { subs[1].Nodes[1] = 9 }},
		{"negative node id", "outside [0,4)", func(subs []*SubGraph) { subs[0].Nodes[0] = -1 }},
		{"remote source nobody owns", "has no owner", func(subs []*SubGraph) { subs[1].Nodes[1] = 2; subs[0].InRemote[0][0] = 3 }},
		{"remote source out of range", "has no owner", func(subs []*SubGraph) { subs[0].InRemote[0][0] = 77 }},
		{"remote source off its owner's border", "border", func(subs []*SubGraph) { subs[0].InRemote[0][0] = 3 }},
	} {
		for _, undirected := range []bool{false, true} {
			subs := build()
			c.mangle(subs)
			if _, _, err := BuildExchange(subs, undirected); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, undirected=%v: error %v, want one mentioning %q", c.name, undirected, err, c.want)
			}
		}
	}
}
