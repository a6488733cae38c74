package kmeans

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// Accum is the key-value payload: a running vector sum of points assigned
// to one centroid plus their count. Map tasks emit partial accumulators;
// the global reduce folds them; the driver divides to obtain centroids.
type Accum struct {
	Sum   []float64
	Count int64
}

// Config parameterizes a K-Means run.
type Config struct {
	// K is the number of clusters (the paper does not state its k;
	// DefaultConfig uses 16 with random initial centroids "for the sake
	// of generality", as the paper does).
	K int
	// Threshold is the paper's δ: convergence when every centroid moves
	// less than this Euclidean distance in one global iteration
	// (Figure 8 sweeps δ over {0.1, 0.01, 0.001, 0.0001}).
	Threshold float64
	// MaxLocalIters caps local iterations inside one gmap (0 = none).
	// It may not be negative.
	MaxLocalIters int
	// ReshuffleEvery repartitions the points across global maps every
	// this many global iterations in the eager formulation, following
	// the Yom-Tov & Slonim observation the paper adopts ("the input
	// points need to be partitioned differently across global maps so as
	// to avoid the algorithm's move towards local optima"). 0 disables.
	ReshuffleEvery int
	// OscillationWindow enables the paper's extended convergence
	// condition ("the convergence condition includes detection of
	// oscillations"): if the centroid-movement series repeats with
	// period 2 over this many iterations, the run is declared converged.
	// 0 disables.
	OscillationWindow int
	// Seed drives initial centroid choice and reshuffles.
	Seed uint64
}

// DefaultConfig returns the paper-aligned settings: 52 partitions are set
// at the call site; k=16 clusters with random initial centroids;
// reshuffle every 5 iterations while coarsely converging; oscillation
// window 5; local refinement capped at 8 sweeps per global round (deep
// local convergence on small subsets overfits each subset's local
// optimum and destabilizes the global average).
func DefaultConfig(threshold float64) Config {
	return Config{
		K:                 16,
		Threshold:         threshold,
		MaxLocalIters:     8,
		ReshuffleEvery:    5,
		OscillationWindow: 5,
		Seed:              0x5EED,
	}
}

func (c *Config) validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("kmeans: K must be >= 1, got %d", c.K)
	case !(c.Threshold > 0):
		return fmt.Errorf("kmeans: Threshold must be positive, got %g", c.Threshold)
	case c.MaxLocalIters < 0:
		return fmt.Errorf("kmeans: MaxLocalIters must not be negative, got %d", c.MaxLocalIters)
	}
	return nil
}

// state is one partition's payload: its current slice of the input
// points plus the centroids it iterates against.
type state struct {
	// points holds this partition's rows (views into the dataset).
	points [][]float64
	// centroids is the partition's working copy of the input centroids,
	// flat K×dims; local iterations refine it, global Update resets it.
	centroids []float64
}

// Result of a K-Means run.
type Result struct {
	// Centroids are the final cluster centers.
	Centroids [][]float64
	// Stats carries the iterative run's accounting.
	Stats *core.RunStats
	// OscillationStop records whether convergence came from oscillation
	// detection rather than the movement threshold.
	OscillationStop bool
}

// Run clusters points into cfg.K clusters over numParts partitions
// (the paper's Figure 8/9 uses 52). eager selects the formulation.
func Run(engine *mapreduce.Engine, points [][]float64, numParts int, cfg Config, eager bool) (*Result, error) {
	return run(engine, points, numParts, cfg, eager, func(dims int) *mapreduce.Job[*state, int64, Accum] {
		return buildJob(cfg, dims, eager)
	})
}

// run is Run with the per-iteration job built by newJob for the points'
// dimension.
func run(engine *mapreduce.Engine, points [][]float64, numParts int, cfg Config, eager bool, newJob func(dims int) *mapreduce.Job[*state, int64, Accum]) (*Result, error) {
	numParts, dims, err := prepare(points, numParts, cfg)
	if err != nil {
		return nil, err
	}
	centroids, perm, rng := seed(points, cfg, dims)
	states := make([]*state, numParts)
	for i := range states {
		states[i] = &state{centroids: append([]float64(nil), centroids...)}
	}
	assignPoints(states, points, perm)

	splits := make([]mapreduce.Split[*state], numParts)
	refreshSplits := func() {
		for i, st := range states {
			splits[i] = mapreduce.Split[*state]{
				Data:    st,
				Records: int64(len(st.points)),
				Bytes:   int64(len(st.points) * dims * 8),
			}
		}
	}
	refreshSplits()

	job := newJob(dims)
	res := &Result{}
	var history []float64
	next := make([]float64, len(centroids))
	driver := &core.Driver[*state, int64, Accum]{
		Engine: engine,
		Job:    job,
		Update: func(iter int, out []mapreduce.KV[int64, Accum], _ []mapreduce.Split[*state]) (bool, error) {
			// Fold the global reduction into new centroids; empty
			// clusters keep their previous center.
			copy(next, centroids)
			for _, kv := range out {
				c := int(kv.Key)
				if c < 0 || c >= cfg.K {
					return false, fmt.Errorf("kmeans: reduce emitted centroid %d outside [0,%d)", c, cfg.K)
				}
				if kv.Value.Count == 0 {
					continue
				}
				for d := 0; d < dims; d++ {
					next[c*dims+d] = kv.Value.Sum[d] / float64(kv.Value.Count)
				}
			}
			movement := 0.0
			for base := 0; base < len(next); base += dims {
				if m := centroidMovement(next[base:base+dims], centroids[base:base+dims]); m > movement {
					movement = m
				}
			}
			centroids, next = next, centroids
			// Input-centroids for the next round are the final-centroids.
			for _, st := range states {
				copy(st.centroids, centroids)
			}
			if movement < cfg.Threshold {
				return true, nil
			}
			history = append(history, movement)
			if cfg.OscillationWindow > 1 && oscillating(history, cfg.OscillationWindow) {
				res.OscillationStop = true
				return true, nil
			}
			// Periodic repartitioning (eager only; the general
			// formulation is partition-agnostic: every partition does
			// identical per-point work regardless of membership). Only
			// while the centroids are still moving coarsely — once
			// movement nears the threshold, reshuffling would inject
			// partition noise above the remaining signal and stall
			// convergence.
			if eager && cfg.ReshuffleEvery > 0 && iter%cfg.ReshuffleEvery == 0 &&
				movement > 10*cfg.Threshold {
				assignPoints(states, points, rng.Perm(len(points)))
				refreshSplits()
			}
			return false, nil
		},
	}
	stats_, err := driver.Run(splits)
	if err != nil {
		return nil, err
	}
	res.Centroids = make([][]float64, cfg.K)
	for c := range res.Centroids {
		res.Centroids[c] = centroids[c*dims : (c+1)*dims : (c+1)*dims]
	}
	res.Stats = stats_
	return res, nil
}

// prepare checks the inputs every formulation shares and returns the
// partition count, clamped to the number of points, and the points'
// dimension. A point without coordinates, or with a NaN or infinite
// one, is refused: the first gives nothing to measure, and the second
// makes a centroid NaN, whose movement never counts against the
// threshold, so the run would report convergence.
func prepare(points [][]float64, numParts int, cfg Config) (parts, dims int, err error) {
	if err := cfg.validate(); err != nil {
		return 0, 0, err
	}
	if len(points) == 0 {
		return 0, 0, fmt.Errorf("kmeans: no points")
	}
	if numParts < 1 {
		return 0, 0, fmt.Errorf("kmeans: numParts must be >= 1, got %d", numParts)
	}
	dims = len(points[0])
	if dims == 0 {
		return 0, 0, fmt.Errorf("kmeans: points have no coordinates")
	}
	for i, p := range points {
		if len(p) != dims {
			return 0, 0, fmt.Errorf("kmeans: point %d has %d dims, want %d", i, len(p), dims)
		}
		for d, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0, 0, fmt.Errorf("kmeans: point %d dim %d is %g", i, d, x)
			}
		}
	}
	return min(numParts, len(points)), dims, nil
}

// seed draws, from one RNG seeded with cfg.Seed, the K initial centroids
// (paper: "initial centroids are chosen at random for the sake of
// generality") and then the first permutation of the points. Each
// centroid copies a point drawn uniformly with replacement, so two
// centroids may coincide. The synchronous driver keeps drawing its
// reshuffles from the returned RNG.
func seed(points [][]float64, cfg Config, dims int) (centroids []float64, perm []int, rng *stats.RNG) {
	rng = stats.NewRNG(cfg.Seed)
	centroids = make([]float64, cfg.K*dims)
	for base := 0; base < len(centroids); base += dims {
		copy(centroids[base:base+dims], points[rng.Intn(len(points))])
	}
	return centroids, rng.Perm(len(points)), rng
}

// assignPoints distributes points to partitions as contiguous chunks of
// the given permutation.
func assignPoints(states []*state, points [][]float64, perm []int) {
	for i, st := range states {
		st.points = chunk(st.points[:0], points, perm, i, len(states))
	}
}

// chunk appends to dst the rows of partition i of parts: the contiguous
// slice [i*n/parts, (i+1)*n/parts) of the permutation of the n points.
func chunk(dst, points [][]float64, perm []int, i, parts int) [][]float64 {
	n := len(points)
	for _, pi := range perm[i*n/parts : (i+1)*n/parts] {
		dst = append(dst, points[pi])
	}
	return dst
}

// oscillating reports whether the movement series has stopped making
// progress: either a period-2 cycle (the K-Means ping-pong pathology) or
// a plateau where the best movement has not improved across the window.
// This is the "detection of oscillations along with the Euclidean
// metric" convergence extension the paper adopts from Yom-Tov & Slonim;
// without it, residual partition noise can hold the movement just above
// a tight threshold indefinitely.
func oscillating(history []float64, window int) bool {
	if len(history) < window || window < 4 {
		return false
	}
	recent := history[len(history)-window:]
	// Period-2 cycle: entries repeat two apart.
	const tol = 1e-9
	cycle := true
	for i := 2; i < len(recent); i++ {
		if math.Abs(recent[i]-recent[i-2]) > tol*(1+math.Abs(recent[i])) {
			cycle = false
			break
		}
	}
	if cycle {
		return true
	}
	// Plateau: nothing in the window beat the best movement seen before
	// the window by at least 1%.
	best := math.Inf(1)
	for _, m := range history[:len(history)-window] {
		if m < best {
			best = m
		}
	}
	for _, m := range recent {
		if m < 0.99*best {
			return false
		}
	}
	return true
}

// centroidMovement is the convergence metric: the Euclidean distance a
// centroid moved, normalized per dimension (divided by sqrt(dims)).
// Normalizing makes the paper's threshold sweep {0.1 .. 0.0001}
// meaningful on 68-dimensional data: the smallest possible nonzero
// movement — one boundary point flipping between clusters — lands below
// 1e-4 instead of being amplified by dimensionality.
func centroidMovement(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	return stats.EuclideanDistance(a, b) / math.Sqrt(float64(len(a)))
}

// buildJob assembles the per-iteration job. The global reduce — fold
// accumulators per centroid — is shared between formulations.
func buildJob(cfg Config, dims int, eager bool) *mapreduce.Job[*state, int64, Accum] {
	job := &mapreduce.Job[*state, int64, Accum]{
		Name:      "kmeans-general",
		Partition: mapreduce.Int64Partition,
		RecordSize: func(_ int64, v Accum) int64 {
			return 16 + int64(8*len(v.Sum))
		},
		Reduce: func(ctx *mapreduce.TaskContext[int64, Accum], key int64, values []Accum) {
			total := Accum{Sum: make([]float64, dims)}
			for _, a := range values {
				for d, x := range a.Sum {
					total.Sum[d] += x
				}
				total.Count += a.Count
			}
			ctx.Charge(int64(len(values) * dims))
			ctx.Emit(key, total)
		},
	}
	if !eager {
		job.Map = func(ctx *mapreduce.TaskContext[int64, Accum], split mapreduce.Split[*state]) {
			generalAssign(ctx, split.Data, cfg.K, dims)
		}
		return job
	}
	job.Name = "kmeans-eager"
	job.Map = eagerMap(cfg, dims)
	return job
}

// generalAssign performs one synchronous assignment sweep: each point
// picks its nearest input centroid; the task emits one partial
// accumulator per centroid (the in-mapper aggregation Mahout's
// implementation achieves with combiners).
func generalAssign(ctx *mapreduce.TaskContext[int64, Accum], st *state, k, dims int) {
	acc := make([]float64, k*(dims+1))
	assign(acc, st.centroids, dims, st.points)
	ctx.Charge(int64(len(st.points) * k * dims))
	emit(ctx, acc, k, dims)
}

// eagerMap is the eager gmap: local Lloyd iterations on the partition's
// subset until no local centroid moves Threshold or more, or
// MaxLocalIters of them when that is above 0, then one accumulator per
// cluster that has members — the paper's "the global map emits the
// input-centroids and their associated updated-centroids". An iteration
// is the paper's lmap, every point assigned to its nearest local
// centroid, and lreduce, each cluster's members summed in point order,
// followed by moving each centroid with members to their mean. Its
// pricing is what the lmap/lreduce program costs through core.BuildGMap:
// a partial synchronization an iteration, k·dims operations a point for
// the assignment and dims for the sum, and the local iteration count.
func eagerMap(cfg Config, dims int) mapreduce.MapFunc[*state, int64, Accum] {
	return func(tc *mapreduce.TaskContext[int64, Accum], split mapreduce.Split[*state]) {
		st := split.Data
		acc, mean := make([]float64, cfg.K*(dims+1)), make([]float64, dims)
		counts := acc[cfg.K*dims:]
		sweeps := 0
		for {
			assign(acc, st.centroids, dims, st.points)
			tc.LocalSync()
			sweeps++
			delta := 0.0
			for c, n := range counts {
				if n == 0 {
					continue
				}
				for d := range mean {
					mean[d] = acc[c*dims+d] / n
				}
				row := st.centroids[c*dims : (c+1)*dims]
				if m := centroidMovement(mean, row); m > delta {
					delta = m
				}
				copy(row, mean)
			}
			if cfg.MaxLocalIters > 0 && sweeps >= cfg.MaxLocalIters || delta < cfg.Threshold {
				break
			}
		}
		tc.Charge(int64(sweeps) * int64(len(st.points)) * int64(len(st.centroids)+dims))
		emit(tc, acc, cfg.K, dims)
	}
}

// assign is the Lloyd assignment pass all three formulations share:
// every point, in order, joins its nearest centroid in the flat K×dims
// buffer, and acc — flat K×(dims+1), cleared first — gathers cluster c's
// per-dimension sums at [c*dims : (c+1)*dims] and its member count, an
// exact small integer, at [K*dims + c].
func assign(acc, centroids []float64, dims int, points [][]float64) {
	clear(acc)
	counts := acc[len(centroids):]
	for _, p := range points {
		c := nearestFlat(centroids, dims, p)
		row := acc[c*dims : (c+1)*dims]
		for d, x := range p {
			row[d] += x
		}
		counts[c]++
	}
}

// emit sends, in cluster order, one accumulator per cluster of acc (laid
// out as assign fills it) that has members; each Sum is a view into acc.
func emit(ctx *mapreduce.TaskContext[int64, Accum], acc []float64, k, dims int) {
	for c, n := range acc[k*dims:] {
		if n > 0 {
			ctx.Emit(int64(c), Accum{Sum: acc[c*dims : (c+1)*dims : (c+1)*dims], Count: int64(n)})
		}
	}
}

// SSE is the K-Means objective, the quality reference every formulation
// is judged by: each point's squared Euclidean distance to its nearest
// centroid, summed in point order.
func SSE(points, centroids [][]float64) (sum float64) {
	for _, p := range points {
		best := math.Inf(1)
		for _, c := range centroids {
			best = min(best, stats.EuclideanDistance(p, c))
		}
		sum += best * best
	}
	return sum
}
