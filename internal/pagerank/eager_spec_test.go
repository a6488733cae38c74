package pagerank

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// specPart is the lmap/lreduce reference's own per-partition scratch.
type specPart struct {
	// elems is the lmap element list, the local node indices.
	elems []int32
	// next receives new ranks during Apply; delta is the last local
	// iteration's largest rank change.
	next  []float64
	delta float64
}

// eagerSpec is the eager gmap as the paper writes it, lmap and lreduce
// through core.BuildGMap, and the reference the native eager run is held
// to.
// parts[s] is sub-graph s's scratch.
func eagerSpec(cfg Config, parts map[*graph.SubGraph]*specPart) *core.LocalSpec[*jobState, int32, int64, float64] {
	return &core.LocalSpec[*jobState, int32, int64, float64]{
		Elements: func(st *jobState) []int32 { return parts[st.sub].elems },
		// lmap: push rank along partition-internal edges only;
		// cross-partition neighbors wait for the global synchronization.
		LMap: func(lc *core.LocalContext[int64, float64], st *jobState, li int32) {
			sub := st.sub
			deg := sub.OutDeg[li]
			if deg == 0 {
				return
			}
			c := st.rank[li] / float64(deg)
			for _, dst := range sub.OutLocal[li] {
				lc.EmitLocalIntermediate(int64(dst), c)
			}
			lc.Charge(int64(len(sub.OutLocal[li])))
		},
		// lreduce: fold local contributions with the frozen ghost sum.
		LReduce: func(lc *core.LocalContext[int64, float64], st *jobState, key int64, values []float64) {
			sum := st.ghost[key]
			for _, v := range values {
				sum += v
			}
			lc.Charge(int64(len(values)))
			lc.EmitLocal(key, (1-cfg.Damping)+cfg.Damping*sum)
		},
		// Partial synchronization barrier: integrate new local ranks,
		// measure the local delta.
		Apply: func(st *jobState, lc *core.LocalContext[int64, float64]) {
			sp := parts[st.sub]
			base := 1 - cfg.Damping
			for li, g := range st.ghost {
				nr := base + cfg.Damping*g
				if v, ok := lc.Value(int64(li)); ok {
					nr = v
				}
				sp.next[li] = nr
			}
			sp.delta = 0
			for li, nr := range sp.next {
				d := nr - st.rank[li]
				if d < 0 {
					d = -d
				}
				if d > sp.delta {
					sp.delta = d
				}
			}
			copy(st.rank, sp.next)
		},
		Converged: func(st *jobState, _ *core.LocalContext[int64, float64]) bool {
			return parts[st.sub].delta < cfg.Epsilon
		},
		MaxLocalIters: cfg.MaxLocalIters,
		// Global emission: every node pushes its rank to all out-links,
		// internal and cross, aggregated per destination.
		Output: func(tc *mapreduce.TaskContext[int64, float64], st *jobState, _ *core.LocalContext[int64, float64]) {
			emitContributions(tc, st)
		},
	}
}

// runSpec runs the eager formulation as MapReduce jobs through the
// engine, with eagerSpec as their gmap.
func runSpec(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config) (*Result, error) {
	parts := make(map[*graph.SubGraph]*specPart, len(subs))
	for _, s := range subs {
		sp := &specPart{elems: make([]int32, s.NumNodes()), next: make([]float64, s.NumNodes())}
		for i := range sp.elems {
			sp.elems[i] = int32(i)
		}
		parts[s] = sp
	}
	return runEngine(engine, subs, cfg, true, buildJob(cfg, core.BuildGMap(eagerSpec(cfg, parts))))
}

// TestEagerMatchesSpec: eager PageRank's native global iterations, whose
// local iterations sweep the pull plan, give the ranks and the run
// statistics (iteration counts, local synchronizations, shuffle volume,
// replayed attempts, simulated time to the bit) that lmap/lreduce through
// core.LocalContext, in jobs through the engine, give: across
// oracleCases, and with local iterations capped.
func TestEagerMatchesSpec(t *testing.T) {
	cases := oracleCases(t)
	for _, c := range cases {
		checkEagerSpec(t, c, 0)
	}
	checkEagerSpec(t, cases[0], 1)
	checkEagerSpec(t, cases[0], 3)
}

// checkEagerSpec is one row of TestEagerMatchesSpec.
func checkEagerSpec(t *testing.T, c oracleCase, maxLocal int) {
	t.Run(fmt.Sprintf("%s/MaxLocalIters %d", c.name, maxLocal), func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaxLocalIters = maxLocal
		got, err := Run(c.engine(), c.subs, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runSpec(c.engine(), c.subs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, got, want, "lmap/lreduce")
	})
}
