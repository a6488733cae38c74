package kmeans

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/stats"
)

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
// points, its map task's accumulators, and the eager map task's
// centroids.
type state struct {
	// points holds this partition's rows (views into the dataset).
	points [][]float64
	// acc is the map task's flat K×(dims+1) accumulator set as assign
	// lays it out: what the task's job emits, one record per cluster
	// with members.
	acc []float64
	// centroids is the eager map task's working copy of the global
	// centroids, flat K×dims: loaded at the start of every task, refined
	// by its local iterations.
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
//
// A global iteration of either formulation is the MapReduce job it
// models, run without records: each partition's map task leaves its
// per-cluster accumulators in its state, a gather sums each cluster's
// over the map tasks in task order into its new centroid, and the job is
// priced from the per-task counts the engine would record
// (mapreduce.Engine.Price), a cluster with members being one record of
// 16+8·dims bytes. The job through internal/mapreduce is the tests'
// oracle.
func Run(engine *mapreduce.Engine, points [][]float64, numParts int, cfg Config, eager bool) (*Result, error) {
	numParts, dims, err := prepare(points, numParts, cfg)
	if err != nil {
		return nil, err
	}
	centroids, perm, rng := seed(points, cfg, dims)
	d := newRun(engine, points, perm, numParts, cfg, eager, centroids)
	res := &Result{}
	var history []float64
	runStats, err := core.Iterate(func(iter int) (mapreduce.Cost, bool, error) {
		if err := engine.ForEachTask(len(d.states), d.mapTask); err != nil {
			return mapreduce.Cost{}, false, fmt.Errorf("kmeans: iteration %d: map phase: %w", iter, err)
		}
		if err := engine.ForEachTask(len(d.reduces), d.gather); err != nil {
			return mapreduce.Cost{}, false, fmt.Errorf("kmeans: iteration %d: gather: %w", iter, err)
		}
		cost := engine.Price(d.maps, d.reduces)
		movement := 0.0
		for base := 0; base < len(d.next); base += dims {
			if m := centroidMovement(d.next[base:base+dims], d.centroids[base:base+dims]); m > movement {
				movement = m
			}
		}
		d.centroids, d.next = d.next, d.centroids
		if movement < cfg.Threshold {
			return cost, true, nil
		}
		history = append(history, movement)
		if cfg.OscillationWindow > 1 && oscillating(history, cfg.OscillationWindow) {
			res.OscillationStop = true
			return cost, true, nil
		}
		// Periodic repartitioning (eager only; the general formulation
		// is partition-agnostic: every partition does identical
		// per-point work regardless of membership). Only while the
		// centroids are still moving coarsely — once movement nears the
		// threshold, reshuffling would inject partition noise above the
		// remaining signal and stall convergence. A reshuffle keeps
		// every chunk's size, so the map tasks' input counts hold.
		if eager && cfg.ReshuffleEvery > 0 && iter%cfg.ReshuffleEvery == 0 &&
			movement > 10*cfg.Threshold {
			assignPoints(d.states, points, rng.Perm(len(points)))
		}
		return cost, false, nil
	})
	if err != nil {
		return nil, err
	}
	res.Centroids, res.Stats = make([][]float64, cfg.K), runStats
	for c := range res.Centroids {
		res.Centroids[c] = d.centroids[c*dims : (c+1)*dims : (c+1)*dims]
	}
	return res, nil
}

// driver is a general or eager run between global iterations: the
// partitions' states, the global centroids, flat K×dims, which the
// gather replaces with next, and what the engine would record for each
// task of one iteration's job.
type driver struct {
	cfg             Config
	eager           bool
	dims            int
	states          []*state
	centroids, next []float64
	// maps[i] and reduces[p] are what map task i and reduce task p of the
	// iteration's job record.
	maps, reduces []mapreduce.TaskStats
}

// newRun builds a run on engine's cluster from the seeded centroids:
// every partition's state over its chunk of perm, and each map task's
// input counts, a point being one record of 8 bytes a dimension.
func newRun(engine *mapreduce.Engine, points [][]float64, perm []int, numParts int, cfg Config, eager bool, centroids []float64) *driver {
	dims := len(centroids) / cfg.K
	d := &driver{
		cfg:       cfg,
		eager:     eager,
		dims:      dims,
		states:    make([]*state, numParts),
		centroids: centroids,
		next:      make([]float64, len(centroids)),
		maps:      make([]mapreduce.TaskStats, numParts),
		reduces:   make([]mapreduce.TaskStats, engine.ReduceSlots()),
	}
	for i := range d.states {
		d.states[i] = &state{acc: make([]float64, cfg.K*(dims+1))}
		if eager {
			d.states[i].centroids = make([]float64, len(centroids))
		}
	}
	assignPoints(d.states, points, perm)
	for i, st := range d.states {
		d.maps[i] = mapreduce.TaskStats{InRecords: int64(len(st.points)), InBytes: int64(len(st.points) * dims * 8)}
	}
	return d
}

// mapTask is the gmap of partition i. General: one assignment sweep
// against the global centroids. Eager: from a copy of them, local Lloyd
// iterations until no local centroid moves Threshold or more, or
// MaxLocalIters of them when that is above 0 — the paper's "the global
// map emits the input-centroids and their associated
// updated-centroids". An eager iteration is the paper's lmap, every
// point assigned to its nearest local centroid, and lreduce, each
// cluster's members summed in point order, followed by moving each
// centroid with members to their mean. Either leaves its last sweep's
// accumulators in the state and records a record per cluster with
// members, and k·dims operations a point for the general sweep or, for
// each eager iteration, k·dims+dims a point and a partial
// synchronization: what the lmap/lreduce program costs through
// core.BuildGMap.
func (d *driver) mapTask(i int) {
	st, k, dims := d.states[i], d.cfg.K, d.dims
	counts := st.acc[k*dims:]
	m := &d.maps[i]
	if d.eager {
		copy(st.centroids, d.centroids)
		mean := make([]float64, dims)
		sweeps := 0
		for {
			assign(st.acc, st.centroids, dims, st.points)
			sweeps++
			delta := 0.0
			for c, n := range counts {
				if n == 0 {
					continue
				}
				for j := range mean {
					mean[j] = st.acc[c*dims+j] / n
				}
				row := st.centroids[c*dims : (c+1)*dims]
				if mv := centroidMovement(mean, row); mv > delta {
					delta = mv
				}
				copy(row, mean)
			}
			if d.cfg.MaxLocalIters > 0 && sweeps >= d.cfg.MaxLocalIters || delta < d.cfg.Threshold {
				break
			}
		}
		m.Ops = int64(sweeps) * int64(len(st.points)) * int64(k*dims+dims)
		m.LocalSyncs = int64(sweeps)
	} else {
		assign(st.acc, d.centroids, dims, st.points)
		m.Ops = int64(len(st.points) * k * dims)
	}
	var records int64
	for _, n := range counts {
		if n > 0 {
			records++
		}
	}
	m.OutRecords, m.OutBytes = records, records*(16+8*int64(dims))
}

// gather is reduce task p: the clusters that mapreduce.Int64Partition
// routes to p of len(reduces), c ≡ p mod len(reduces). Each sums its
// rows with members over the map tasks, in task order, one record and
// dims operations a row, and its new centroid is the sums over the
// summed count, one record out. A cluster no point joined keeps its
// center.
func (d *driver) gather(p int) {
	k, dims := d.cfg.K, d.dims
	var in, out int64
	for c := p; c < k; c += len(d.reduces) {
		row := d.next[c*dims : (c+1)*dims]
		clear(row)
		count := 0.0
		for _, st := range d.states {
			if n := st.acc[k*dims+c]; n > 0 {
				for j, x := range st.acc[c*dims : (c+1)*dims] {
					row[j] += x
				}
				count += n
				in++
			}
		}
		if count == 0 {
			copy(row, d.centroids[c*dims:(c+1)*dims])
			continue
		}
		for j := range row {
			row[j] /= count
		}
		out++
	}
	d.reduces[p] = mapreduce.TaskStats{
		InRecords:  in,
		OutRecords: out,
		OutBytes:   out * (16 + 8*int64(dims)),
		Ops:        in * int64(dims),
	}
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
