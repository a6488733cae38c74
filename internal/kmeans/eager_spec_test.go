package kmeans

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// eagerSpec is the eager gmap as the paper writes it, lmap and lreduce
// through core.BuildGMap, and the oracle the native eager map task is
// held to: local Lloyd iterations on the partition's subset until the
// local centroids stop moving, then the hashtable (input-centroid ->
// local accumulator) becomes the global emission. deltas holds each partition's last local
// movement between Apply and Converged.
func eagerSpec(cfg Config, dims int, deltas *sync.Map) *core.LocalSpec[*state, int32, int64, accum] {
	return &core.LocalSpec[*state, int32, int64, accum]{
		// xs: the partition's point indices.
		Elements: func(st *state) []int32 {
			elems := make([]int32, len(st.points))
			for i := range elems {
				elems[i] = int32(i)
			}
			return elems
		},
		// lmap: assign one point to the nearest current local centroid.
		LMap: func(lc *core.LocalContext[int64, accum], st *state, pi int32) {
			p := st.points[pi]
			c := nearestFlat(st.centroids, dims, p)
			lc.Charge(int64(len(st.centroids)))
			lc.EmitLocalIntermediate(int64(c), accum{Sum: p, Count: 1})
		},
		// lreduce: fold one cluster's members into an accumulator.
		LReduce: func(lc *core.LocalContext[int64, accum], st *state, key int64, values []accum) {
			total := accum{Sum: make([]float64, dims)}
			for _, a := range values {
				for d, x := range a.Sum {
					total.Sum[d] += x
				}
				total.Count += a.Count
			}
			lc.Charge(int64(len(values) * dims))
			lc.EmitLocal(key, total)
		},
		// Partial synchronization: move the local centroids to the new
		// local means and measure movement.
		Apply: func(st *state, lc *core.LocalContext[int64, accum]) {
			delta := 0.0
			lc.State(func(k int64, a accum) {
				mean := make([]float64, dims)
				for d := range mean {
					mean[d] = a.Sum[d] / float64(a.Count)
				}
				row := st.centroids[int(k)*dims : int(k+1)*dims]
				if m := centroidMovement(mean, row); m > delta {
					delta = m
				}
				copy(row, mean)
			})
			deltas.Store(st, delta)
		},
		Converged: func(st *state, _ *core.LocalContext[int64, accum]) bool {
			delta, _ := deltas.Load(st)
			return delta.(float64) < cfg.Threshold
		},
		MaxLocalIters: cfg.MaxLocalIters,
		// The hashtable holds exactly the final local iteration's cluster
		// accumulators, emitted as-is to greduce.
		ResetStatePerIteration: true,
	}
}

// TestEagerMatchesSpec: eager K-Means' native Lloyd iterations give the
// centroids, the run statistics (iteration counts, local
// synchronizations, shuffle volume, replayed attempts, simulated time to
// the bit) and the oscillation verdict that lmap/lreduce through
// core.LocalContext give, across specCases.
func TestEagerMatchesSpec(t *testing.T) {
	pts := smallCensus(t)
	for _, c := range specCases() {
		t.Run(c.name, func(t *testing.T) {
			got, err := Run(c.engine(), pts, c.parts, c.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runOracle(c.engine(), pts, c.parts, c.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, got, want, "lmap/lreduce")
		})
	}
}
