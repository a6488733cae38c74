package pagerank

import (
	"fmt"
	"math"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
)

// publishFraction scales the publication threshold relative to Epsilon:
// a partition republishes its boundary contributions only when one moved
// by more than Epsilon*publishFraction. Sub-threshold noise otherwise
// cascades wakeups around cross-partition cycles forever; damping
// guarantees the suppressed residual stays below Epsilon at the fixed
// point (see DESIGN.md).
const publishFraction = 0.1

// AsyncResult of a fully-asynchronous PageRank run.
type AsyncResult struct {
	// Ranks[u] is the converged PageRank of node u.
	Ranks []float64
	// Stats carries the asynchronous run's accounting.
	Stats *async.RunStats
}

// asyncState is one partition's worker payload: a dense local Jacobi
// solver plus the plan (graph.Exchange) to publish its border nodes'
// contributions (rank/outdeg) and add up the ones it reads from neighbor
// snapshots.
type asyncState struct {
	sub *graph.SubGraph
	x   graph.Exchange
	// rank and ghost mirror the eager formulation's arrays. acc and
	// scratch are Step's per-step scratch: the per-destination sums of a
	// sweep, and every node's contribution rank/outdeg.
	rank    []float64
	ghost   []float64
	scratch []float64
	acc     []float64
	// lastPub is the last published contribution vector itself (parallel
	// to x.Border), for change detection. A published vector is immutable,
	// so nothing writes through this slice: a publishing step, Restore and
	// Undo replace the header, and a checkpoint or undo buffer keeps it by
	// reference.
	lastPub []float64
	// lastDelta is the partition's convergence residual: the largest
	// rank delta its most recent step observed across its local sweeps
	// (the quantity Quiescent thresholds). Written only by Step, so
	// crash replay rebuilds it bit-exactly; read by async.Progressive.
	lastDelta float64
}

// asyncWorkload implements async.Workload for PageRank. The published
// data is the partition's boundary contribution vector.
type asyncWorkload struct {
	cfg    Config
	states []*asyncState
}

func (w *asyncWorkload) Parts() int            { return len(w.states) }
func (w *asyncWorkload) Neighbors(p int) []int { return w.states[p].x.Neighbors }

// Residual implements async.Progressive: the largest rank delta the
// partition's most recent step observed. Before the first step it is
// the initial rank magnitude (every node starts at rank 1, §V-B).
func (w *asyncWorkload) Residual(p int) float64 { return w.states[p].lastDelta }

// asyncCkpt is one partition's checkpoint for the crash fault model:
// the mutable cross-step state is the rank vector and the last
// published contributions. ghost/acc/scratch are per-step scratch,
// rebuilt from inputs before they are read, so they need no capture.
// lastDelta is there for the undo buffer, which is the same record (a
// recovery's replay rebuilds it anyway).
type asyncCkpt struct {
	rank      []float64
	lastPub   []float64
	lastDelta float64
}

// Checkpoint implements async.Recoverable: an immutable copy of the
// partition's rank state, priced at its serialized size.
func (w *asyncWorkload) Checkpoint(p int) (any, int64) {
	c := w.SaveUndo(p, nil).(*asyncCkpt)
	return c, 16 + 8*int64(len(c.rank)+len(c.lastPub))
}

// SaveUndo implements async.Undoable beside Restore: the cross-step state
// in a checkpoint record of the executor's, whose memory is reused.
func (w *asyncWorkload) SaveUndo(p int, buf any) any {
	c, _ := buf.(*asyncCkpt)
	if c == nil {
		c = new(asyncCkpt)
	}
	st := w.states[p]
	c.rank = append(c.rank[:0], st.rank...)
	c.lastPub, c.lastDelta = st.lastPub, st.lastDelta
	return c
}

// Restore implements async.Recoverable: rewind the partition to a
// checkpoint; the runtime then replays the journaled steps, which
// rebuilds the lost Jacobi iterations deterministically.
func (w *asyncWorkload) Restore(p int, state any) {
	c := state.(*asyncCkpt)
	st := w.states[p]
	copy(st.rank, c.rank)
	st.lastPub, st.lastDelta = c.lastPub, c.lastDelta
}

func (w *asyncWorkload) Init(p int) ([]float64, int64) {
	st := w.states[p]
	return st.lastPub, st.sub.Bytes
}

func (w *asyncWorkload) Step(p, step int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	st := w.states[p]
	x := &st.x
	cfg := w.cfg
	var ops int64

	// Integrate neighbor snapshots into the ghost contributions.
	for i := range st.ghost {
		st.ghost[i] = 0
	}
	for r, li := range x.Node {
		st.ghost[li] += inputs[x.Slot[r]].Data[x.Idx[r]]
	}
	ops += int64(len(x.Node))

	// Local Jacobi sweeps to local convergence against frozen ghosts,
	// the same inner loop the eager gmap runs between global barriers,
	// run edge-centric: scatterEdges, then foldNodes. contrib and acc are
	// per-step scratch, rebuilt from rank here, so rank and lastPub remain
	// the only cross-step state. A node without out-edges gets
	// contribution +Inf; no edge and no border entry reads it.
	sub := st.sub
	rank := st.rank
	n := len(rank)
	ghost, acc, contrib, outDeg := st.ghost[:n], st.acc[:n], st.scratch[:n], sub.OutDeg[:n]
	for i, r := range rank {
		acc[i] = 0
		contrib[i] = r / float64(outDeg[i])
	}
	sweepOps := int64(len(sub.LocalDst)) + 2*int64(n)
	base := 1 - cfg.Damping
	startDelta := 0.0
	sweeps := 0
	maxSweeps := cfg.MaxLocalIters
	if maxSweeps <= 0 {
		maxSweeps = async.DefaultMaxSteps
	}
	for sweeps < maxSweeps {
		scatterEdges(acc, contrib, sub.LocalSrc, sub.LocalDst)
		delta := foldNodes(rank, acc, ghost, contrib, outDeg, base, cfg.Damping)
		ops += sweepOps
		sweeps++
		if delta > startDelta {
			startDelta = delta
		}
		if delta < cfg.LocalEpsilon {
			break
		}
	}

	st.lastDelta = startDelta

	// Publish boundary contributions only on material change.
	pubEps := cfg.Epsilon * publishFraction
	changed := false
	for bi, li := range x.Border {
		d := contrib[li] - st.lastPub[bi]
		if d < 0 {
			d = -d
		}
		if d > pubEps {
			changed = true
			break
		}
	}
	out := async.StepOutcome[[]float64]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  startDelta < cfg.Epsilon,
	}
	if changed {
		pub := make([]float64, len(x.Border))
		for bi, li := range x.Border {
			pub[bi] = contrib[li]
		}
		st.lastPub = pub
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 8*int64(len(pub))
	}
	return out
}

// scatterEdges is the first half of a sweep: one stream over the
// partition's flat edge list, source ascending, so every destination is
// summed in the order a per-node push would sum it.
//
// It and foldNodes are leaf functions, kept so by go:noinline, for the
// register allocator's sake: inside Step, with some 25 values live, each
// loop's induction variable was spilled and every iteration waited on a
// store-to-load forward of its own counter. Handed only what its loop
// reads, a leaf keeps all of it in registers, which
// TestSweepKernelsKeepNoStackTraffic holds; the inliner would put
// scatterEdges (cost 23 of a budget of 80) straight back (DESIGN.md §5b).
//
//go:noinline
func scatterEdges(acc, contrib []float64, src, dst []int32) {
	src = src[:len(dst)]
	for k, d := range dst {
		acc[d] += contrib[src[k]]
	}
}

// foldNodes is the second half: one pass per node that folds the new rank,
// the accumulator reset and the node's next contribution together, and
// returns the largest rank change (math.Abs, not a sign branch: a -0 or
// NaN difference passes d > delta either way). The other slices are at
// least as long as rank. Out of line for scatterEdges' reason: at cost 98
// the inliner leaves it alone today, but only just.
//
//go:noinline
func foldNodes(rank, acc, ghost, contrib []float64, outDeg []int32, base, damping float64) (delta float64) {
	n := len(rank)
	acc, ghost, contrib, outDeg = acc[:n], ghost[:n], contrib[:n], outDeg[:n]
	for i, old := range rank {
		nr := base + damping*(acc[i]+ghost[i])
		acc[i] = 0
		if d := math.Abs(nr - old); d > delta {
			delta = d
		}
		rank[i] = nr
		contrib[i] = nr / float64(outDeg[i])
	}
	return delta
}

// RunAsync executes PageRank in the fully-asynchronous bounded-staleness
// mode over the given sub-graphs. opt selects the staleness bound and
// the executor: opt.Executor = async.Parallel runs partition workers on
// real goroutines (the adapter's per-partition state is touched by at
// most one step at a time, so it is safe under the parallel executor's
// contract) and produces virtual-time results identical to the default
// sequential DES.
func RunAsync(c *cluster.Cluster, subs []*graph.SubGraph, cfg Config, opt async.Options) (*AsyncResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("pagerank: no partitions")
	}
	w, n, err := buildAsyncWorkload(subs, cfg)
	if err != nil {
		return nil, err
	}
	stats, err := async.Run(c, w, opt)
	if err != nil {
		return nil, err
	}
	ranks := make([]float64, n)
	for _, st := range w.states {
		for li, u := range st.sub.Nodes {
			ranks[u] = st.rank[li]
		}
	}
	return &AsyncResult{Ranks: ranks, Stats: stats}, nil
}

// buildAsyncWorkload builds every partition's solver state around its
// boundary exchange plan; contributions follow edge direction.
func buildAsyncWorkload(subs []*graph.SubGraph, cfg Config) (*asyncWorkload, int, error) {
	xs, n, err := graph.BuildExchange(subs, false)
	if err != nil {
		return nil, 0, fmt.Errorf("pagerank: %w", err)
	}
	states := make([]*asyncState, len(subs))
	for p, s := range subs {
		m := s.NumNodes()
		st := &asyncState{
			sub:     s,
			x:       xs[p],
			rank:    make([]float64, m),
			ghost:   make([]float64, m),
			scratch: make([]float64, m),
			acc:     make([]float64, m),
		}
		st.lastDelta = 1 // pre-step residual: the initial rank magnitude
		// Step sweeps the flat edge list only; a sub-graph built without
		// it would lose its local edges without a sign.
		local := 0
		for _, adj := range s.OutLocal {
			local += len(adj)
		}
		if len(s.LocalSrc) != local || len(s.LocalDst) != local {
			return nil, 0, fmt.Errorf("pagerank: partition %d lists %d local edges but its flat edge list holds %d sources and %d destinations",
				p, local, len(s.LocalSrc), len(s.LocalDst))
		}
		for li := range st.rank {
			st.rank[li] = 1 // all nodes start with rank 1 (§V-B)
		}
		st.lastPub = make([]float64, len(st.x.Border))
		for bi, li := range st.x.Border {
			st.lastPub[bi] = 1 / float64(s.OutDeg[li])
		}
		states[p] = st
	}
	return &asyncWorkload{cfg: cfg, states: states}, n, nil
}
