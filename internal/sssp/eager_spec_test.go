package sssp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mapreduce"
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
// core.LocalContext give, across specCases.
func TestEagerMatchesSpec(t *testing.T) {
	for _, c := range specCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got, err := Run(c.engine(), c.subs, c.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			job := buildJob(c.cfg, true)
			job.Map = core.BuildGMap(eagerSpec(c.cfg))
			want, err := runEngine(c.engine(), c.subs, c.cfg, job)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, got, want, "lmap/lreduce")
		})
	}
}
