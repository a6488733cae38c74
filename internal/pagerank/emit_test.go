package pagerank

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// pushSums is the global emission as a push computes it, and the model
// the owner-computes iteration is held to: every edge in traversal order
// (node ascending, OutLocal then OutRemote) scatters rank/outdeg into its
// destination's sum, every sum starting at 0; the sums come out in
// ascending key order, and the task is charged one operation per
// out-edge. rank is by local index.
func pushSums(sub *graph.SubGraph, rank []float64) (keys []int64, sums []float64, ops int64) {
	var dsts []graph.NodeID // every edge's destination, in traversal order
	for li := range sub.Nodes {
		for _, d := range sub.OutLocal[li] {
			dsts = append(dsts, sub.Nodes[d])
		}
		dsts = append(dsts, sub.OutRemote[li]...)
		ops += int64(sub.OutDeg[li])
	}
	slot := map[graph.NodeID]int{}
	for _, v := range dsts {
		if _, ok := slot[v]; !ok {
			slot[v] = 0
			keys = append(keys, int64(v))
		}
	}
	slices.Sort(keys)
	for i, k := range keys {
		slot[graph.NodeID(k)] = i
	}
	sums = make([]float64, len(keys))
	e := 0
	for li := range sub.Nodes {
		c := rank[li] / float64(sub.OutDeg[li])
		n := len(sub.OutLocal[li]) + len(sub.OutRemote[li])
		for _, v := range dsts[e : e+n] {
			sums[slot[v]] += c
		}
		e += n
	}
	return keys, sums, ops
}

// TestPullEmissionMatchesPush: one owner-computes global iteration — the
// fold over each pull plan, then the reduce of the deferred rows over
// the sums pulled through the exchange plans — gives every node the rank
// that the reduce of the pushed sums gives (each node's sums added from
// 0 in partition order), bit for bit, and the largest change; and the
// task counts it prices are the push's: a map task's records and
// operations, a reduce task's records, keys and operations. On generated
// graphs in 1 to 40 parts and on hand-built ones with dangling nodes,
// nodes with no local in-edge and with no in-edge at all, repeated local
// and remote edges, self-loops, a node fed from partitions below and
// above its owner, a partition with no remote edge and one with no local
// edge. The ranks are random with signs and magnitudes from 1e-16 to
// 1e16, and -0, so that any other summation order rounds differently.
func TestPullEmissionMatchesPush(t *testing.T) {
	type edge [2]graph.NodeID
	handBuilt := func(nodes int, parts []int32, edges []edge) []*graph.SubGraph {
		g := &graph.Graph{Out: make([][]graph.NodeID, nodes)}
		for _, e := range edges {
			g.Out[e[0]] = append(g.Out[e[0]], e[1])
		}
		k := int(slices.Max(parts)) + 1
		subs, err := graph.BuildSubGraphs(g, parts, k)
		if err != nil {
			t.Fatal(err)
		}
		return subs
	}
	// Node 3 dangles and has only a remote in-edge; 6 has no in-edge; 0→1
	// and 0→4 repeat; 9 loops on itself; 4 is fed from partitions 0
	// (below its owner) and 2 (above), and locally.
	ten := []edge{{0, 1}, {0, 1}, {0, 4}, {0, 4}, {1, 2}, {1, 7}, {2, 0}, {2, 5}, {4, 5}, {4, 0},
		{5, 4}, {5, 4}, {6, 1}, {7, 8}, {8, 7}, {9, 9}, {9, 3}, {8, 4}}
	cases := []struct {
		name string
		subs []*graph.SubGraph
	}{
		{"ten nodes in 3 parts", handBuilt(10, []int32{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}, ten)},
		{"ten nodes in 1 part", handBuilt(10, make([]int32, 10), ten)},
		{"a part with no remote edge", handBuilt(7, []int32{0, 0, 0, 1, 1, 1, 1},
			[]edge{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 5}, {5, 3}, {5, 5}})},
		{"no local edge", handBuilt(4, []int32{0, 1, 0, 1}, []edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 0}})},
	}
	g := smallGraph()
	for _, k := range []int{1, 3, 8, 40} {
		cases = append(cases, struct {
			name string
			subs []*graph.SubGraph
		}{fmt.Sprintf("Graph A ÷140 in %d parts", k), subgraphs(t, g, k)})
	}
	rng := stats.NewRNG(41)
	cfg := DefaultConfig()
	base := 1 - cfg.Damping
	for _, c := range cases {
		d, err := newDriver(engine(), c.subs, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range c.subs {
			n += s.NumNodes()
		}
		old, sums := make([]float64, n), make([]float64, n)
		fed := make([]int64, n) // the partitions that emit each node
		for p, s := range c.subs {
			st := &d.parts[p]
			rank := make([]float64, s.NumNodes())
			for li, u := range s.Nodes {
				rank[li] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(33)-16))
				if li == 0 {
					rank[li] = math.Copysign(0, -1)
				}
				r := s.Pull.Pos[li]
				st.rank[r], st.contrib[r], old[u] = rank[li], rank[li]/s.Pull.OutDeg[r], rank[li]
			}
			keys, ps, ops := pushSums(s, rank)
			if m := d.maps[p]; m.Ops != ops || m.OutRecords != int64(len(keys)) || m.OutBytes != 16*m.OutRecords {
				t.Fatalf("%s, part %d: the map task records %d records of %d bytes for %d operations, the push %d for %d",
					c.name, p, m.OutRecords, m.OutBytes, m.Ops, len(keys), ops)
			}
			for i, k := range keys {
				sums[k] += ps[i]
				fed[k]++
			}
		}
		want, wantDelta := make([]float64, n), 0.0
		reduces := make([]mapreduce.TaskStats, len(d.reduces))
		for u := range want {
			want[u] = base + cfg.Damping*sums[u]
			if fed[u] > 0 {
				r := &reduces[mapreduce.Int64Partition(int64(u), len(reduces))]
				r.InRecords += fed[u]
				r.OutRecords++
				r.OutBytes += 16
				r.Ops += fed[u]
			}
			if x := math.Abs(want[u] - old[u]); x > wantDelta {
				wantDelta = x
			}
		}
		if !slices.Equal(d.reduces, reduces) {
			t.Fatalf("%s: reduce tasks record %+v, the push's %+v", c.name, d.reduces, reduces)
		}
		delta, _, err := d.iterate()
		if err != nil {
			t.Fatal(err)
		}
		got := d.ranks()
		for u := range want {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Fatalf("%s: node %d's rank %v, the push's %v", c.name, u, got[u], want[u])
			}
		}
		if delta != wantDelta {
			t.Fatalf("%s: largest change %v, the push's %v", c.name, delta, wantDelta)
		}
	}
}
