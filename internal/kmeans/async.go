package kmeans

import (
	"math"

	"repro/internal/async"
	"repro/internal/cluster"
)

// AsyncResult of a fully-asynchronous K-Means run.
type AsyncResult struct {
	// Centroids are the final cluster centers: the fold of every
	// partition's last published accumulators.
	Centroids [][]float64
	// Stats carries the asynchronous run's accounting.
	Stats *async.RunStats
	// OscillationStop records whether any worker settled via oscillation
	// detection rather than the movement threshold.
	OscillationStop bool
}

// The async adapter keeps accumulators and centroids in flat buffers, the
// layout assign fills for all three formulations:
//
//   - an accumulator set is one []float64 of length K*(dims+1), cluster
//     c's per-dimension sums at [c*dims : (c+1)*dims] and its member
//     count — an exact small integer in float64 — at [K*dims + c];
//   - a centroid estimate is one []float64 of length K*dims.
//
// One flat buffer per partition plus swap/scratch twins replaces the
// per-step make([]Accum, K) + per-centroid make([]float64, dims) churn,
// and a publish clones one flat buffer instead of K Accums. All
// arithmetic runs in the exact order of the old nested layout, so
// results stay bit-identical (pinned by TestAsyncFlatAccumGoldens).

// asyncState is one partition's worker payload in the parameter-server
// formulation: the partition assigns its own points under its current
// estimate of the global centroids and publishes per-cluster
// accumulators; the global centroids are the fold of everyone's latest
// accumulators, read with bounded staleness.
type asyncState struct {
	points [][]float64
	// accum is the partition's current flat accumulator set (what it
	// last computed; published on change). stepAccum is the assignment
	// scratch the next step fills before the two swap.
	accum     []float64
	stepAccum []float64
	// centroids is the partition's current flat estimate of the global
	// centers; nextCentroids is the fold scratch it swaps with. Empty
	// clusters keep their previous center.
	centroids     []float64
	nextCentroids []float64
	// foldSum is the per-cluster fold scratch (len dims).
	foldSum []float64
	// history drives oscillation detection, as in the synchronous modes.
	history    []float64
	oscillated bool
	// lastMovement is the partition's convergence residual: the largest
	// centroid movement its most recent fold observed (the quantity
	// Quiescent thresholds). Written only by Step, so crash replay
	// rebuilds it bit-exactly; read by async.Progressive. Seeded with the
	// initial centroid spread so the pre-step residual is finite.
	lastMovement float64
	// ckpts are the ping-pong checkpoint buffers (see Checkpoint).
	ckpts [2]asyncCkpt
	ckptN int
}

// asyncWorkload implements async.Workload for K-Means. Every partition
// reads every other (the centroid fold is global), so Neighbors is
// all-to-all — the dense-dependency extreme of the async runtime.
type asyncWorkload struct {
	cfg    Config
	dims   int
	states []*asyncState
	// allOthers[p] caches the neighbor lists.
	allOthers [][]int
}

func (w *asyncWorkload) Parts() int            { return len(w.states) }
func (w *asyncWorkload) Neighbors(p int) []int { return w.allOthers[p] }

// Residual implements async.Progressive: the largest centroid movement
// the partition's most recent fold observed. Before the first step it
// is the spread of the initial centroids — finite by construction.
func (w *asyncWorkload) Residual(p int) float64 { return w.states[p].lastMovement }

// asyncCkpt is one partition's checkpoint for the crash fault model:
// the flat accumulator set, the flat centroid estimate, and the
// oscillation detector's movement history (which replay re-extends
// deterministically). The points themselves are immutable job input;
// lastMovement is there for the undo buffer, which is the same record (a
// recovery's replay rebuilds it anyway).
type asyncCkpt struct {
	accum        []float64
	centroids    []float64
	history      []float64
	oscillated   bool
	lastMovement float64
}

// Checkpoint implements async.Recoverable. It ping-pongs between two
// per-partition buffers: the scheduler commits every checkpoint
// immediately and its log retains only the latest, so the buffer filled
// two Checkpoint calls ago is unreachable and safe to overwrite.
func (w *asyncWorkload) Checkpoint(p int) (any, int64) {
	st := w.states[p]
	c := w.SaveUndo(p, &st.ckpts[st.ckptN]).(*asyncCkpt)
	st.ckptN ^= 1
	bytes := int64(w.cfg.K)*(16+8*int64(w.dims)) + // accumulators
		int64(w.cfg.K)*8*int64(w.dims) + // centroid estimate
		8*int64(len(c.history)) + 16
	return c, bytes
}

// Restore implements async.Recoverable.
func (w *asyncWorkload) Restore(p int, state any) {
	c := state.(*asyncCkpt)
	st := w.states[p]
	copy(st.accum, c.accum)
	copy(st.centroids, c.centroids)
	st.history = append(st.history[:0], c.history...)
	st.oscillated, st.lastMovement = c.oscillated, c.lastMovement
}

// SaveUndo implements async.Undoable beside Restore: the cross-step state
// in a checkpoint record of the executor's, never one of the ping-pong pair.
func (w *asyncWorkload) SaveUndo(p int, buf any) any {
	c, _ := buf.(*asyncCkpt)
	if c == nil {
		c = new(asyncCkpt)
	}
	st := w.states[p]
	c.accum = append(c.accum[:0], st.accum...)
	c.centroids = append(c.centroids[:0], st.centroids...)
	c.history = append(c.history[:0], st.history...)
	c.oscillated, c.lastMovement = st.oscillated, st.lastMovement
	return c
}

func (w *asyncWorkload) Init(p int) ([]float64, int64) {
	st := w.states[p]
	// Version 0 is an empty accumulator set: the first fold leaves every
	// worker at exactly the shared initial centroids.
	empty := make([]float64, w.cfg.K*(w.dims+1))
	return empty, int64(len(st.points) * w.dims * 8)
}

func (w *asyncWorkload) Step(p, step int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	st := w.states[p]
	cfg := w.cfg
	dims := w.dims
	countsOff := cfg.K * dims
	var ops int64

	// Fold neighbor accumulators with this partition's own into the
	// global centroid estimate; empty clusters keep their last center.
	next := st.nextCentroids
	copy(next, st.centroids)
	for c := 0; c < cfg.K; c++ {
		base := c * dims
		sum := st.foldSum
		clear(sum)
		count := 0.0
		for _, in := range inputs {
			data := in.Data
			for d := 0; d < dims; d++ {
				sum[d] += data[base+d]
			}
			count += data[countsOff+c]
		}
		for d := 0; d < dims; d++ {
			sum[d] += st.accum[base+d]
		}
		count += st.accum[countsOff+c]
		if count > 0 {
			for d := 0; d < dims; d++ {
				next[base+d] = sum[d] / count
			}
		}
	}
	ops += int64(cfg.K * dims * (len(inputs) + 2))

	movement := 0.0
	for c := 0; c < cfg.K; c++ {
		base := c * dims
		if m := centroidMovement(next[base:base+dims], st.centroids[base:base+dims]); m > movement {
			movement = m
		}
	}
	st.centroids, st.nextCentroids = next, st.centroids
	st.lastMovement = movement

	// Assign this partition's points under the new estimate.
	newAccum := st.stepAccum
	assign(newAccum, st.centroids, dims, st.points)
	ops += int64(len(st.points) * cfg.K * dims)

	changed := flatAccumsDiffer(st.accum, newAccum)
	st.accum, st.stepAccum = newAccum, st.accum

	quiescent := movement < cfg.Threshold
	if !quiescent && cfg.OscillationWindow > 1 {
		st.history = append(st.history, movement)
		if oscillating(st.history, cfg.OscillationWindow) {
			// The movement series ping-pongs or plateaued: stop chasing
			// partition noise, as the synchronous modes do.
			quiescent = true
			st.oscillated = true
			changed = false
		}
	}

	out := async.StepOutcome[[]float64]{
		Ops:        ops,
		LocalIters: 1,
		Quiescent:  quiescent,
	}
	if changed {
		out.Publish = true
		// The store's history is append-only (crash replay re-reads old
		// versions), so the published set must be a fresh clone — one
		// flat allocation per publish.
		out.Data = append([]float64(nil), st.accum...)
		out.Bytes = int64(cfg.K) * (16 + 8*int64(dims))
	}
	return out
}

// newAsyncWorkload builds the flat per-partition states from the same
// seeding and chunking as the synchronous modes. Split out of RunAsync so
// tests can drive Step directly.
func newAsyncWorkload(points [][]float64, numParts int, cfg Config, dims int) *asyncWorkload {
	centroids, perm, _ := seed(points, cfg, dims)
	// Pre-step residual: the spread (max pairwise distance) of the
	// initial centroids — a finite stand-in for "nothing has converged
	// yet" on the same scale as later movements.
	spread := 0.0
	for a := 0; a < cfg.K; a++ {
		for b := a + 1; b < cfg.K; b++ {
			if m := centroidMovement(centroids[a*dims:(a+1)*dims], centroids[b*dims:(b+1)*dims]); m > spread {
				spread = m
			}
		}
	}
	flatLen := cfg.K * (dims + 1)
	states := make([]*asyncState, numParts)
	allOthers := make([][]int, numParts)
	for i := range states {
		states[i] = &asyncState{
			points:        chunk(nil, points, perm, i, numParts),
			accum:         make([]float64, flatLen),
			stepAccum:     make([]float64, flatLen),
			centroids:     append([]float64(nil), centroids...),
			nextCentroids: make([]float64, cfg.K*dims),
			foldSum:       make([]float64, dims),
			lastMovement:  spread,
		}
		for q := 0; q < numParts; q++ {
			if q != i {
				allOthers[i] = append(allOthers[i], q)
			}
		}
	}
	return &asyncWorkload{cfg: cfg, dims: dims, states: states, allOthers: allOthers}
}

// RunAsync clusters points into cfg.K clusters over numParts partitions
// in the fully-asynchronous bounded-staleness mode. Unlike the eager
// formulation there is no periodic reshuffle: partitions are fixed for
// the whole run, and the oscillation detector alone guards against
// partition-induced ping-pong. opt selects the staleness bound and the
// executor; async.Parallel overlaps the per-partition assignment scans
// (the dominant compute) on real goroutines with virtual-time results
// identical to the default sequential DES.
func RunAsync(c *cluster.Cluster, points [][]float64, numParts int, cfg Config, opt async.Options) (*AsyncResult, error) {
	numParts, dims, err := prepare(points, numParts, cfg)
	if err != nil {
		return nil, err
	}
	w := newAsyncWorkload(points, numParts, cfg, dims)
	runStats, err := async.Run(c, w, opt)
	if err != nil {
		return nil, err
	}
	return w.result(runStats), nil
}

// result reads the final centers: every partition's final accumulators
// folded; empty clusters keep the first partition's last estimate.
func (w *asyncWorkload) result(runStats *async.RunStats) *AsyncResult {
	k, dims := w.cfg.K, w.dims
	countsOff := k * dims
	final := make([][]float64, k)
	for c := 0; c < k; c++ {
		base := c * dims
		final[c] = append([]float64(nil), w.states[0].centroids[base:base+dims]...)
		sum := make([]float64, dims)
		count := 0.0
		for _, st := range w.states {
			for d := 0; d < dims; d++ {
				sum[d] += st.accum[base+d]
			}
			count += st.accum[countsOff+c]
		}
		if count > 0 {
			for d := 0; d < dims; d++ {
				final[c][d] = sum[d] / count
			}
		}
	}
	res := &AsyncResult{Centroids: final, Stats: runStats}
	for _, st := range w.states {
		if st.oscillated {
			res.OscillationStop = true
		}
	}
	return res
}

// flatAccumsDiffer reports whether two flat accumulator sets represent
// different assignments. Counts and sums are compared exactly: identical
// membership reproduces identical sums (fixed point order).
func flatAccumsDiffer(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// nearestFlat returns the index of the centroid closest to p in a flat
// K×dims centroid buffer (squared distance, leaving a centroid as soon as
// its partial sum reaches the best so far; ties to the lower index).
// Every formulation reaches it through assign.
func nearestFlat(centroids []float64, dims int, p []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, base := 0, 0; base < len(centroids); c, base = c+1, base+dims {
		d := 0.0
		for i := range p {
			diff := p[i] - centroids[base+i]
			d += diff * diff
			if d >= bestD {
				break
			}
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
