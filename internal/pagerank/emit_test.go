package pagerank

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// pushScatter is the global emission as emitContributions computed it
// before it pulled, and the model it is held to: every edge in traversal
// order (node ascending, OutLocal then OutRemote) scatters rank/outdeg
// into its destination's sum, every sum starting at 0; the sums go out in
// ascending key order, and the task is charged one operation per
// out-edge.
func pushScatter(tc *mapreduce.TaskContext[int64, float64], sub *graph.SubGraph, rank []float64) {
	var dsts []graph.NodeID // every edge's destination, in traversal order
	var ops int64
	for li := range sub.Nodes {
		if sub.OutDeg[li] == 0 {
			continue
		}
		for _, d := range sub.OutLocal[li] {
			dsts = append(dsts, sub.Nodes[d])
		}
		dsts = append(dsts, sub.OutRemote[li]...)
		ops += int64(sub.OutDeg[li])
	}
	slot := map[graph.NodeID]int{}
	var keys []int64
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
	acc := make([]float64, len(keys))
	e := 0
	for li := range sub.Nodes {
		deg := sub.OutDeg[li]
		if deg == 0 {
			continue
		}
		c := rank[li] / float64(deg)
		n := len(sub.OutLocal[li]) + len(sub.OutRemote[li])
		for _, v := range dsts[e : e+n] {
			acc[slot[v]] += c
		}
		e += n
	}
	tc.Charge(ops)
	for i, k := range keys {
		tc.Emit(k, acc[i])
	}
}

// emitted runs emit on st as the one task of a map-only job, on a cluster
// that prices nothing but compute, at one operation a second, and reports
// the records it emitted and the operations it charged: the job's
// duration.
func emitted(t *testing.T, st *state, emit func(*mapreduce.TaskContext[int64, float64], *state)) ([]mapreduce.KV[int64, float64], int64) {
	t.Helper()
	cfg := cluster.EC2LargeCluster()
	cfg.ComputeRate = 1
	cfg.JobOverhead, cfg.TaskOverhead, cfg.MapRecordCost, cfg.EmitCost = 0, 0, 0, 0
	cfg.FailureProb, cfg.StragglerJitter = 0, 0
	job := &mapreduce.Job[*state, int64, float64]{
		Name:       "emit",
		Map:        func(tc *mapreduce.TaskContext[int64, float64], sp mapreduce.Split[*state]) { emit(tc, sp.Data) },
		RecordSize: func(int64, float64) int64 { return 0 },
	}
	res, err := mapreduce.Run(mapreduce.NewEngine(cluster.New(cfg)), job, []mapreduce.Split[*state]{{Data: st}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Output, int64(res.Duration)
}

// TestPullEmissionMatchesPush: the pulled emission gives the scatter's
// records — keys, order and value bits — and charge, partition by
// partition, on generated graphs in 1 to 40 parts and on hand-built ones
// with dangling nodes, nodes with no local in-edge and with no in-edge at
// all, repeated local and remote edges, self-loops, a partition with no
// remote edge and one with no local edge. The ranks are random with signs
// and magnitudes from 1e-16 to 1e16, and -0, so that any other summation
// order rounds differently.
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
	// and 0→4 repeat; 9 loops on itself.
	ten := []edge{{0, 1}, {0, 1}, {0, 4}, {0, 4}, {1, 2}, {1, 7}, {2, 0}, {2, 5}, {4, 5}, {4, 0},
		{5, 4}, {5, 4}, {6, 1}, {7, 8}, {8, 7}, {9, 9}, {9, 3}}
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
	for _, c := range cases {
		for p, st := range newStates(engine(), c.subs, DefaultConfig(), false).states {
			for li := range st.rank {
				st.rank[li] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(33)-16))
			}
			st.rank[0] = math.Copysign(0, -1)
			got, gotOps := emitted(t, st, emitContributions)
			want, wantOps := emitted(t, st, func(tc *mapreduce.TaskContext[int64, float64], st *state) {
				pushScatter(tc, st.sub, st.rank)
			})
			if gotOps != wantOps || len(got) != len(want) {
				t.Fatalf("%s, part %d: %d records for %d operations, the scatter %d for %d",
					c.name, p, len(got), gotOps, len(want), wantOps)
			}
			for i := range want {
				if got[i].Key != want[i].Key || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("%s, part %d: record %d is (%d, %v), the scatter's (%d, %v)",
						c.name, p, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
		}
	}
}
