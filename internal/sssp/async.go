package sssp

import (
	"fmt"
	"math"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
)

// AsyncResult of a fully-asynchronous SSSP run.
type AsyncResult struct {
	// Dist[u] is the shortest distance from the source to u
	// (+Inf if unreachable). Distance relaxation is monotone, so the
	// asynchronous mode converges to the exact answer at any staleness.
	Dist []float64
	// Stats carries the asynchronous run's accounting.
	Stats *async.RunStats
}

// asyncState is one partition's worker payload: a local label-correcting
// solver plus the plan (graph.Exchange) to publish its border nodes'
// distances and relax against the ones it reads.
type asyncState struct {
	sub    *graph.SubGraph
	x      graph.Exchange
	dist   []float64
	active []bool
	// next is the local sweeps' next-frontier buffer, reused from sweep
	// to sweep. A sweep marks its entries active before the buffer is
	// reused, so nothing in it outlives a step or belongs in a checkpoint.
	next    []int32
	lastPub []float64 // parallel to x.Border
	// ghostW[r] is the weight of the cross in-edge read r travels:
	// InRemoteW flattened in node order, parallel to the plan's reads.
	ghostW []float64
}

// asyncWorkload implements async.Workload for SSSP; the published data
// is the partition's border distance vector.
type asyncWorkload struct {
	cfg    Config
	states []*asyncState
}

func (w *asyncWorkload) Parts() int            { return len(w.states) }
func (w *asyncWorkload) Neighbors(p int) []int { return w.states[p].x.Neighbors }

// Residual implements async.Progressive: the fraction of local nodes
// still unreached (distance +Inf) — the settled-fraction complement. A
// pure scan of the distance vector, so it needs no per-step cache and
// is exact at any boundary, including before the first step (1.0
// everywhere but the source's partition).
func (w *asyncWorkload) Residual(p int) float64 {
	st := w.states[p]
	if len(st.dist) == 0 {
		return 0
	}
	unreached := 0
	for _, d := range st.dist {
		if math.IsInf(d, 1) {
			unreached++
		}
	}
	return float64(unreached) / float64(len(st.dist))
}

// asyncCkpt is one partition's checkpoint for the crash fault model:
// distances, the active frontier, and the last published border
// distances are the state that survives across steps.
type asyncCkpt struct {
	dist    []float64
	active  []bool
	lastPub []float64
}

// Checkpoint implements async.Recoverable.
func (w *asyncWorkload) Checkpoint(p int) (any, int64) {
	c := w.SaveUndo(p, nil).(*asyncCkpt)
	return c, 16 + 8*int64(len(c.dist)+len(c.lastPub)) + int64(len(c.active))
}

// SaveUndo implements async.Undoable beside Restore: the cross-step state
// in a checkpoint record of the executor's, whose memory is reused.
func (w *asyncWorkload) SaveUndo(p int, buf any) any {
	c, _ := buf.(*asyncCkpt)
	if c == nil {
		c = new(asyncCkpt)
	}
	st := w.states[p]
	c.dist = append(c.dist[:0], st.dist...)
	c.active = append(c.active[:0], st.active...)
	c.lastPub = append(c.lastPub[:0], st.lastPub...)
	return c
}

// Restore implements async.Recoverable: rewind to a checkpoint; replay
// re-relaxes the journaled steps against the store's history.
func (w *asyncWorkload) Restore(p int, state any) {
	c := state.(*asyncCkpt)
	st := w.states[p]
	copy(st.dist, c.dist)
	copy(st.active, c.active)
	copy(st.lastPub, c.lastPub)
}

func (w *asyncWorkload) Init(p int) ([]float64, int64) {
	st := w.states[p]
	return append([]float64(nil), st.lastPub...), st.sub.Bytes
}

func (w *asyncWorkload) Step(p, step int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	st := w.states[p]
	sub := st.sub
	x := &st.x
	var ops int64

	// Relax cross-partition in-edges from the snapshots; improvements
	// seed the local frontier.
	for r, li := range x.Node {
		cand := inputs[x.Slot[r]].Data[x.Idx[r]] + st.ghostW[r]
		if cand < st.dist[li] {
			st.dist[li] = cand
			st.active[li] = true
		}
	}
	ops += int64(len(x.Node))

	// Local Bellman-Ford over the active frontier until it drains (or
	// the sweep cap leaves residual work for the next step).
	sweeps := 0
	maxSweeps := w.cfg.MaxLocalIters
	if maxSweeps <= 0 {
		maxSweeps = async.DefaultMaxSteps
	}
	frontierLeft := false
	for sweeps < maxSweeps {
		next, edges := relaxSweep(st.dist, st.active, sub.OutLocal, sub.WLocal, st.next[:0])
		ops += edges
		st.next = next
		sweeps++
		if len(next) == 0 {
			break
		}
		for _, li := range next {
			st.active[li] = true
		}
	}
	for li := range st.active {
		if st.active[li] {
			frontierLeft = true
			break
		}
	}

	// Publish border distances that improved; monotonicity means any
	// change is material and the stream of publications is finite.
	changed := false
	for bi, li := range x.Border {
		if st.dist[li] < st.lastPub[bi] {
			changed = true
			break
		}
	}
	out := async.StepOutcome[[]float64]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  !frontierLeft,
	}
	if changed {
		pub := make([]float64, len(x.Border))
		for bi, li := range x.Border {
			pub[bi] = st.dist[li]
		}
		copy(st.lastPub, pub)
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 8*int64(len(pub))
	}
	return out
}

// relaxSweep is one local Bellman-Ford sweep: every active node goes
// inactive and relaxes its local out-edges. It returns next with one entry
// per distance lowered, and the edges examined. A function of its own so
// that the edge loop reads dist and the node's two lists from registers:
// inside Step it reloaded three slice headers and its own spilled counter
// per edge (lockstep A/B 0.76-0.83 of the inline loop, DESIGN.md §5b).
func relaxSweep(dist []float64, active []bool, outLocal [][]int32, wLocal [][]float64, next []int32) ([]int32, int64) {
	var edges int64
	outLocal, wLocal = outLocal[:len(active)], wLocal[:len(active)]
	for li, on := range active {
		if !on {
			continue
		}
		active[li] = false
		d := dist[li]
		out := outLocal[li]
		w := wLocal[li][:len(out)]
		for ei, dst := range out {
			if nd := d + w[ei]; nd < dist[dst] {
				dist[dst] = nd
				next = append(next, dst)
			}
		}
		edges += int64(len(out))
	}
	return next, edges
}

// RunAsync executes SSSP in the fully-asynchronous bounded-staleness
// mode over the given weighted sub-graphs. opt selects the staleness
// bound and the executor; async.Parallel overlaps partition relaxation
// sweeps on real goroutines with virtual-time results identical to the
// default sequential DES.
func RunAsync(c *cluster.Cluster, subs []*graph.SubGraph, cfg Config, opt async.Options) (*AsyncResult, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("sssp: no partitions")
	}
	if subs[0].WLocal == nil {
		return nil, fmt.Errorf("sssp: sub-graphs are unweighted; call Graph.AssignUniformWeights first")
	}
	n := 0
	for _, s := range subs {
		n += s.NumNodes()
	}
	if cfg.Source < 0 || int(cfg.Source) >= n {
		return nil, fmt.Errorf("sssp: source %d outside [0,%d)", cfg.Source, n)
	}
	w, err := buildAsyncWorkload(subs, cfg)
	if err != nil {
		return nil, err
	}
	stats, err := async.Run(c, w, opt)
	if err != nil {
		return nil, err
	}
	dist := make([]float64, n)
	for _, st := range w.states {
		for li, u := range st.sub.Nodes {
			dist[u] = st.dist[li]
		}
	}
	return &AsyncResult{Dist: dist, Stats: stats}, nil
}

// buildAsyncWorkload builds every partition's solver state around its
// boundary exchange plan; distances follow edge direction.
func buildAsyncWorkload(subs []*graph.SubGraph, cfg Config) (*asyncWorkload, error) {
	xs, _, err := graph.BuildExchange(subs, false)
	if err != nil {
		return nil, fmt.Errorf("sssp: %w", err)
	}
	states := make([]*asyncState, len(subs))
	for p, s := range subs {
		st := &asyncState{
			sub:    s,
			x:      xs[p],
			dist:   make([]float64, s.NumNodes()),
			active: make([]bool, s.NumNodes()),
			ghostW: make([]float64, 0, len(xs[p].Node)),
		}
		for li, u := range s.Nodes {
			st.dist[li] = math.Inf(1)
			if u == cfg.Source {
				st.dist[li] = 0
				st.active[li] = true
			}
		}
		for _, ws := range s.InRemoteW {
			st.ghostW = append(st.ghostW, ws...)
		}
		if len(st.ghostW) != len(st.x.Node) {
			return nil, fmt.Errorf("sssp: partition %d has %d cross in-edges but %d weights for them", p, len(st.x.Node), len(st.ghostW))
		}
		st.lastPub = make([]float64, len(st.x.Border))
		for bi, li := range st.x.Border {
			st.lastPub[bi] = st.dist[li]
		}
		states[p] = st
	}
	return &asyncWorkload{cfg: cfg, states: states}, nil
}
