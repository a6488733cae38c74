// Package cc implements connected components on the fully-asynchronous
// bounded-staleness runtime (internal/async): the fourth workload on
// the boundary-exchange Workload contract, next to PageRank, SSSP and
// K-Means. Components are computed by min-label propagation over the
// graph's undirected closure (weakly-connected components for directed
// inputs): every node starts labelled with its own id and repeatedly
// adopts the smallest label among its neighbors in either edge
// direction. Label propagation is monotone — labels only ever decrease
// — so, like SSSP, the asynchronous mode converges to the exact
// component assignment at any staleness bound, which also makes the
// workload a natural stress for the adaptive staleness controller
// (internal/adapt): sparse cross-partition dependencies and bursty
// label waves reward per-worker bounds.
package cc

import (
	"fmt"
	"slices"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
)

// Config tunes the asynchronous connected-components run.
type Config struct {
	// MaxLocalIters caps the local propagation sweeps inside one
	// asynchronous step (0 = sweep to local convergence).
	MaxLocalIters int
}

// AsyncResult of a fully-asynchronous connected-components run.
type AsyncResult struct {
	// Comp[u] is the smallest node id in u's weakly-connected component
	// — the component representative. Propagation is monotone, so the
	// asynchronous mode is exact at any staleness.
	Comp []graph.NodeID
	// Stats carries the asynchronous run's accounting.
	Stats *async.RunStats
}

// asyncState is one partition's worker payload: local min-label
// propagation plus the plan (graph.Exchange, undirected: labels cross
// the cut both ways) to publish its border nodes' labels and relax
// against the ones it reads.
type asyncState struct {
	sub    *graph.SubGraph
	x      graph.Exchange
	comp   []graph.NodeID
	active []bool
	// inLocalOff/inLocalAdj are the partition-internal reverse adjacency
	// in CSR form (labels flow against edge direction too; SubGraph only
	// stores the forward split): node li's local in-neighbors are
	// inLocalAdj[inLocalOff[li]:inLocalOff[li+1]]. One offset array plus
	// one slab instead of a []int32 per node.
	inLocalOff []int32
	inLocalAdj []int32
	// next is the reusable next-frontier buffer of the local sweeps,
	// mirroring the engine's reusable step buffers: the hot per-step
	// loop allocates nothing.
	next    []int32
	lastPub []graph.NodeID // parallel to x.Border
	// arena backs published border vectors. The store's history is
	// append-only (crash replay re-reads old versions), so published
	// slices can never be reused — but they can be carved out of chunks
	// sized for ~16 publishes, amortizing the per-publish allocation.
	arena []graph.NodeID
	// ckpts are the ping-pong checkpoint buffers (see Checkpoint).
	ckpts [2]asyncCkpt
	ckptN int
	// lastChanged is the partition's convergence residual: the fraction
	// of local nodes whose label the most recent step lowered (clamped
	// to 1 — a node can be lowered more than once inside one step's
	// sweeps). Written only by Step, so crash replay rebuilds it
	// bit-exactly; read by async.Progressive. Starts at 1: every label
	// is still provisional before the first step.
	lastChanged float64
}

// asyncWorkload implements async.Workload for connected components; the
// published data is the partition's border label vector.
type asyncWorkload struct {
	cfg    Config
	states []*asyncState
}

func (w *asyncWorkload) Parts() int            { return len(w.states) }
func (w *asyncWorkload) Neighbors(p int) []int { return w.states[p].x.Neighbors }

// Residual implements async.Progressive: the fraction of the
// partition's labels its most recent step lowered. Monotone label
// propagation drives it to 0 exactly at quiescence.
func (w *asyncWorkload) Residual(p int) float64 { return w.states[p].lastChanged }

// asyncCkpt is one partition's checkpoint for the crash fault model:
// labels, the active frontier, and the last published border labels are
// the state that survives across steps (lastChanged for the undo buffer,
// which is the same record: a recovery's replay rebuilds it anyway).
type asyncCkpt struct {
	comp        []graph.NodeID
	active      []bool
	lastPub     []graph.NodeID
	lastChanged float64
}

// Checkpoint implements async.Recoverable. It ping-pongs between two
// per-partition buffers: the scheduler commits every checkpoint
// immediately and its log retains only the latest, so the buffer filled
// two Checkpoint calls ago is unreachable and safe to overwrite.
func (w *asyncWorkload) Checkpoint(p int) (any, int64) {
	st := w.states[p]
	c := w.SaveUndo(p, &st.ckpts[st.ckptN]).(*asyncCkpt)
	st.ckptN ^= 1
	return c, 16 + 4*int64(len(c.comp)+len(c.lastPub)) + int64(len(c.active))
}

// SaveUndo implements async.Undoable beside Restore: the cross-step state
// in a checkpoint record of the executor's, never one of the ping-pong
// pair. What an undone step carved from the arena was never published and
// is simply not handed out again.
func (w *asyncWorkload) SaveUndo(p int, buf any) any {
	c, _ := buf.(*asyncCkpt)
	if c == nil {
		c = new(asyncCkpt)
	}
	st := w.states[p]
	c.comp = append(c.comp[:0], st.comp...)
	c.active = append(c.active[:0], st.active...)
	c.lastPub = append(c.lastPub[:0], st.lastPub...)
	c.lastChanged = st.lastChanged
	return c
}

// Restore implements async.Recoverable: rewind to a checkpoint; replay
// re-relaxes the journaled steps against the store's history.
func (w *asyncWorkload) Restore(p int, state any) {
	c := state.(*asyncCkpt)
	st := w.states[p]
	copy(st.comp, c.comp)
	copy(st.active, c.active)
	copy(st.lastPub, c.lastPub)
	st.lastChanged = c.lastChanged
}

func (w *asyncWorkload) Init(p int) ([]graph.NodeID, int64) {
	st := w.states[p]
	return append([]graph.NodeID(nil), st.lastPub...), st.sub.Bytes
}

func (w *asyncWorkload) Step(p, step int, inputs []async.Snapshot[[]graph.NodeID]) async.StepOutcome[[]graph.NodeID] {
	st := w.states[p]
	sub := st.sub
	x := &st.x
	var ops int64
	lowered := 0

	// Relax against the neighbor snapshots; improvements seed the local
	// frontier.
	for r, li := range x.Node {
		cand := inputs[x.Slot[r]].Data[x.Idx[r]]
		if cand < st.comp[li] {
			st.comp[li] = cand
			st.active[li] = true
			lowered++
		}
	}
	ops += int64(len(x.Node))

	// Local min-label sweeps over the active frontier, in both edge
	// directions, until it drains (or the sweep cap leaves residual
	// work for the next step).
	sweeps := 0
	maxSweeps := w.cfg.MaxLocalIters
	if maxSweeps <= 0 {
		maxSweeps = async.DefaultMaxSteps
	}
	for sweeps < maxSweeps {
		next, edges := sweepLabels(st.comp, st.active, sub.OutLocal, st.inLocalOff, st.inLocalAdj, st.next[:0])
		ops += edges
		lowered += len(next)
		st.next = next
		sweeps++
		if len(next) == 0 {
			break
		}
		for _, li := range next {
			st.active[li] = true
		}
	}
	frontierLeft := false
	for li := range st.active {
		if st.active[li] {
			frontierLeft = true
			break
		}
	}
	if m := len(st.comp); m > 0 {
		f := float64(lowered) / float64(m)
		if f > 1 {
			f = 1
		}
		st.lastChanged = f
	}

	// Publish border labels that improved; monotonicity means any
	// change is material and the stream of publications is finite.
	changed := false
	for bi, li := range x.Border {
		if st.comp[li] < st.lastPub[bi] {
			changed = true
			break
		}
	}
	out := async.StepOutcome[[]graph.NodeID]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  !frontierLeft,
	}
	if changed {
		if cap(st.arena)-len(st.arena) < len(x.Border) {
			st.arena = make([]graph.NodeID, 0, 16*len(x.Border))
		}
		lo := len(st.arena)
		st.arena = st.arena[:lo+len(x.Border)]
		pub := st.arena[lo:len(st.arena):len(st.arena)]
		for bi, li := range x.Border {
			pub[bi] = st.comp[li]
		}
		copy(st.lastPub, pub)
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 4*int64(len(pub))
	}
	return out
}

// sweepLabels is one local sweep: every active node goes inactive and
// pushes its label along its local out- and in-edges. It returns next with
// one entry per label lowered, and the edges examined. A function of its
// own that makes room in next once per node, so that neither edge loop
// holds a call: around an append the compiler kept the loops' counters on
// the stack (lockstep A/B 0.84-0.87 of the inline loops, DESIGN.md §5b).
func sweepLabels(comp []graph.NodeID, active []bool, outLocal [][]int32, inOff, inAdj, next []int32) ([]int32, int64) {
	var edges int64
	outLocal = outLocal[:len(active)]
	for li, on := range active {
		if !on {
			continue
		}
		active[li] = false
		c := comp[li]
		out := outLocal[li]
		in := inAdj[inOff[li]:inOff[li+1]]
		n := len(next)
		next = slices.Grow(next, len(out)+len(in))
		buf := next[:cap(next)]
		for _, dst := range out {
			if c < comp[dst] {
				comp[dst] = c
				buf[n] = dst
				n++
			}
		}
		for _, src := range in {
			if c < comp[src] {
				comp[src] = c
				buf[n] = src
				n++
			}
		}
		next = buf[:n]
		edges += int64(len(out) + len(in))
	}
	return next, edges
}

// RunAsync executes connected components in the fully-asynchronous
// bounded-staleness mode over the given sub-graphs. opt selects the
// staleness bound (or an adaptive policy) and the executor;
// async.Parallel overlaps partition label sweeps on real goroutines
// with virtual-time results identical to the default sequential DES.
func RunAsync(c *cluster.Cluster, subs []*graph.SubGraph, cfg Config, opt async.Options) (*AsyncResult, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("cc: no partitions")
	}
	w, n, err := buildAsyncWorkload(subs, cfg)
	if err != nil {
		return nil, err
	}
	stats, err := async.Run(c, w, opt)
	if err != nil {
		return nil, err
	}
	comp := make([]graph.NodeID, n)
	for _, st := range w.states {
		for li, u := range st.sub.Nodes {
			comp[u] = st.comp[li]
		}
	}
	return &AsyncResult{Comp: comp, Stats: stats}, nil
}

// buildAsyncWorkload builds every partition's propagation state — the
// local reverse adjacency included — around its boundary exchange plan.
// Labels cross the cut along edges in both directions, so the plan is
// undirected: a partition reads the remote source of every cross in-edge
// and the remote target of every cross out-edge.
func buildAsyncWorkload(subs []*graph.SubGraph, cfg Config) (*asyncWorkload, int, error) {
	xs, n, err := graph.BuildExchange(subs, true)
	if err != nil {
		return nil, 0, fmt.Errorf("cc: %w", err)
	}
	states := make([]*asyncState, len(subs))
	for p, s := range subs {
		m := s.NumNodes()
		st := &asyncState{
			sub:    s,
			x:      xs[p],
			comp:   make([]graph.NodeID, m),
			active: make([]bool, m),
			// Pre-step residual: every label is provisional.
			lastChanged: 1,
		}
		for li, u := range s.Nodes {
			st.comp[li] = u
			// Every node is initially active: its own label must reach
			// its local neighborhood even without any cross input.
			st.active[li] = true
		}
		// Reverse adjacency in CSR form: count in-degrees, prefix-sum
		// into offsets, then scatter with the offsets as cursors (they
		// end up shifted one slot left, i.e. back to final form).
		st.inLocalOff = make([]int32, m+1)
		for li := range s.Nodes {
			for _, dst := range s.OutLocal[li] {
				st.inLocalOff[dst+1]++
			}
		}
		for li := 0; li < m; li++ {
			st.inLocalOff[li+1] += st.inLocalOff[li]
		}
		st.inLocalAdj = make([]int32, st.inLocalOff[m])
		cursor := make([]int32, m)
		copy(cursor, st.inLocalOff[:m])
		for li := range s.Nodes {
			for _, dst := range s.OutLocal[li] {
				st.inLocalAdj[cursor[dst]] = int32(li)
				cursor[dst]++
			}
		}
		st.lastPub = make([]graph.NodeID, len(st.x.Border))
		for bi, li := range st.x.Border {
			st.lastPub[bi] = st.comp[li]
		}
		states[p] = st
	}
	return &asyncWorkload{cfg: cfg, states: states}, n, nil
}

// Reference computes the exact weakly-connected components of g by
// union-find, labelling each node with the smallest id in its
// component: the oracle the asynchronous runs are checked against.
func Reference(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for u, adj := range g.Out {
		for _, v := range adj {
			union(int32(u), v)
		}
	}
	comp := make([]graph.NodeID, n)
	// Two passes: root compression first, then the min-id label. With
	// unions always attaching the larger root under the smaller, every
	// root already is its component's minimum.
	for u := range comp {
		comp[u] = find(int32(u))
	}
	return comp
}
