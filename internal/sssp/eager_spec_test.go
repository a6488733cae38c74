package sssp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

// eagerSpec is the eager gmap as the paper writes it, lmap and lreduce
// through core.BuildGMap, and the reference eagerMap is held to: local
// Bellman-Ford sweeps over the partition's active frontier until no
// local distance improves.
func eagerSpec(cfg Config) *core.LocalSpec[*state, int32, int64, float64] {
	return &core.LocalSpec[*state, int32, int64, float64]{
		// xs: the current local frontier.
		Elements: func(st *state) []int32 {
			var elems []int32
			for li, a := range st.active {
				if a {
					elems = append(elems, int32(li))
				}
			}
			return elems
		},
		// lmap: relax partition-internal out-edges of one frontier node.
		LMap: func(lc *core.LocalContext[int64, float64], st *state, li int32) {
			sub := st.sub
			d := st.dist[li]
			for ei, dst := range sub.OutLocal[li] {
				lc.EmitLocalIntermediate(int64(dst), d+sub.WLocal[li][ei])
			}
			lc.Charge(int64(len(sub.OutLocal[li])))
		},
		// lreduce: keep the best candidate per local node.
		LReduce: func(lc *core.LocalContext[int64, float64], st *state, key int64, values []float64) {
			best := math.Inf(1)
			for _, v := range values {
				if v < best {
					best = v
				}
			}
			lc.Charge(int64(len(values)))
			if best < st.dist[key] {
				lc.EmitLocal(key, best)
			}
		},
		// Partial synchronization: fold improvements into the partition
		// state and form the next frontier.
		Apply: func(st *state, lc *core.LocalContext[int64, float64]) {
			clear(st.active)
			lc.State(func(k int64, v float64) {
				if v < st.dist[k] {
					st.dist[k] = v
					st.active[k] = true
				}
			})
		},
		Converged: func(st *state, _ *core.LocalContext[int64, float64]) bool {
			return !slices.Contains(st.active, true)
		},
		MaxLocalIters: cfg.MaxLocalIters,
		Output: func(tc *mapreduce.TaskContext[int64, float64], st *state, _ *core.LocalContext[int64, float64]) {
			emitSettled(tc, st)
		},
	}
}

// TestEagerMatchesSpec: eager SSSP's native sweeps give the distances and
// the run statistics (iteration counts, local synchronizations, shuffle
// volume, simulated time to the bit) that lmap/lreduce through
// core.LocalContext give, over partition counts from 3 to 40, multilevel
// and hash partitioning, several sources, and local iterations capped.
func TestEagerMatchesSpec(t *testing.T) {
	for _, c := range []struct {
		shrink, parts, maxLocal int
		method                  partition.Method
		source                  graph.NodeID
	}{
		{140, 8, 0, partition.Multilevel, 0},
		{140, 8, 1, partition.Multilevel, 5},
		{140, 8, 3, partition.Multilevel, 17},
		{140, 3, 0, partition.Multilevel, 5},
		{140, 40, 3, partition.Multilevel, 0},
		{140, 8, 0, partition.Hash, 17},
		{60, 16, 0, partition.Multilevel, 0},
	} {
		name := fmt.Sprintf("A÷%d/%d %v parts/source %d/MaxLocalIters %d", c.shrink, c.parts, c.method, c.source, c.maxLocal)
		t.Run(name, func(t *testing.T) {
			g := graph.MustGenerate(graph.GraphAConfig().Scaled(c.shrink))
			g.AssignUniformWeights(1, 100, 42)
			a, err := partition.Partition(g, c.parts, partition.Options{Method: c.method, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Source: c.source, MaxLocalIters: c.maxLocal}
			got, err := Run(engine(), subs, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			job := buildJob(cfg, true)
			job.Map = core.BuildGMap(eagerSpec(cfg))
			want, err := run(engine(), subs, cfg, job)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want.Dist {
				if math.Float64bits(got.Dist[u]) != math.Float64bits(want.Dist[u]) {
					t.Fatalf("node %d: distance %v, lmap/lreduce %v", u, got.Dist[u], want.Dist[u])
				}
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("run statistics differ: %d global and %d local iterations in %v, lmap/lreduce %d and %d in %v",
					got.Stats.GlobalIterations, got.Stats.LocalIterations, got.Stats.Duration,
					want.Stats.GlobalIterations, want.Stats.LocalIterations, want.Stats.Duration)
			}
		})
	}
}
