package kmeans

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mapreduce"
)

// eagerSpec is the eager gmap as the paper writes it, lmap and lreduce
// through core.BuildGMap, and the reference eagerMap is held to: local
// Lloyd iterations on the partition's subset until the local centroids
// stop moving, then the hashtable (input-centroid -> local accumulator)
// becomes the global emission. deltas holds each partition's last local
// movement between Apply and Converged.
func eagerSpec(cfg Config, dims int, deltas *sync.Map) *core.LocalSpec[*state, int32, int64, Accum] {
	return &core.LocalSpec[*state, int32, int64, Accum]{
		// xs: the partition's point indices.
		Elements: func(st *state) []int32 {
			elems := make([]int32, len(st.points))
			for i := range elems {
				elems[i] = int32(i)
			}
			return elems
		},
		// lmap: assign one point to the nearest current local centroid.
		LMap: func(lc *core.LocalContext[int64, Accum], st *state, pi int32) {
			p := st.points[pi]
			c := nearestFlat(st.centroids, dims, p)
			lc.Charge(int64(len(st.centroids)))
			lc.EmitLocalIntermediate(int64(c), Accum{Sum: p, Count: 1})
		},
		// lreduce: fold one cluster's members into an accumulator.
		LReduce: func(lc *core.LocalContext[int64, Accum], st *state, key int64, values []Accum) {
			total := Accum{Sum: make([]float64, dims)}
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
		Apply: func(st *state, lc *core.LocalContext[int64, Accum]) {
			delta := 0.0
			lc.State(func(k int64, a Accum) {
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
		Converged: func(st *state, _ *core.LocalContext[int64, Accum]) bool {
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
// synchronizations, shuffle volume, simulated time to the bit) and the
// oscillation verdict that lmap/lreduce through core.LocalContext give,
// over partition counts from 3 to 52, local iterations uncapped and
// capped, reshuffles on and off, and thresholds from 0.1 to 1e-4.
func TestEagerMatchesSpec(t *testing.T) {
	pts := smallCensus(t)
	for _, c := range []struct {
		parts, maxLocal, reshuffle int
		threshold                  float64
	}{
		{13, 8, 5, 0.01},
		{13, 0, 0, 0.1},
		{52, 1, 2, 1e-3},
		{3, 3, 5, 1e-4},
		{7, 8, 0, 1e-4},
	} {
		name := fmt.Sprintf("%d parts/MaxLocalIters %d/ReshuffleEvery %d/threshold %g", c.parts, c.maxLocal, c.reshuffle, c.threshold)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(c.threshold)
			cfg.MaxLocalIters, cfg.ReshuffleEvery = c.maxLocal, c.reshuffle
			got, err := Run(engine(), pts, c.parts, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			var deltas sync.Map
			want, err := run(engine(), pts, c.parts, cfg, true, func(dims int) *mapreduce.Job[*state, int64, Accum] {
				job := buildJob(cfg, dims, true)
				job.Map = core.BuildGMap(eagerSpec(cfg, dims, &deltas))
				return job
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Centroids {
				for d, w := range want.Centroids[i] {
					if g := got.Centroids[i][d]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("centroid %d dim %d: %v, lmap/lreduce %v", i, d, g, w)
					}
				}
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) || got.OscillationStop != want.OscillationStop {
				t.Fatalf("run statistics differ: %d global and %d local iterations in %v (oscillation stop %v), lmap/lreduce %d and %d in %v (%v)",
					got.Stats.GlobalIterations, got.Stats.LocalIterations, got.Stats.Duration, got.OscillationStop,
					want.Stats.GlobalIterations, want.Stats.LocalIterations, want.Stats.Duration, want.OscillationStop)
			}
		})
	}
}
