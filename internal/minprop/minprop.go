// Package minprop is the monotone min-relaxation on the asynchronous
// bounded-staleness runtime (internal/async): every node holds a value
// that only ever falls, each edge offers its target the source's value
// (plus the edge's weight, on a weighted graph), and a node keeps the
// smallest offer. SSSP is this relaxation over weighted directed edges
// from one source at 0; connected components by min-label propagation is
// it over the undirected closure with every node seeded at its own id
// (internal/sssp and internal/cc are the two front-ends). Because values
// only fall, the runtime reaches the one fixed point at any staleness
// bound and under any delivery order.
package minprop

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/async"
	"repro/internal/graph"
)

// Label is a relaxed value: SSSP's float64 distances, CC's node-id labels.
type Label interface{ float64 | int32 }

// part is one partition's worker payload: the partition's values, its
// frontier, and the plan (graph.Exchange) to publish its border nodes'
// values and relax against the ones it reads.
type part[T Label] struct {
	sub    *graph.SubGraph
	x      graph.Exchange
	val    []T
	active []bool
	// wLocal and ghostW are the weights of a weighted relaxation (nil
	// otherwise): SubGraph.WLocal, and InRemoteW flattened in node order,
	// which is parallel to the directed plan's reads.
	wLocal [][]T
	ghostW []T
	// inOff/inAdj are an unweighted relaxation's partition-internal
	// reverse adjacency in CSR form (values flow against edge direction
	// too; SubGraph only stores the forward split): node li's local
	// in-neighbors are inAdj[inOff[li]:inOff[li+1]].
	inOff []int32
	inAdj []int32
	// next is the local sweeps' next-frontier buffer, reused from sweep to
	// sweep. A sweep marks its entries active before the buffer is reused,
	// so nothing in it outlives a step or belongs in a checkpoint.
	next    []int32
	lastPub []T // parallel to x.Border
	// arena backs published border vectors. The store's history is
	// append-only (crash replay re-reads old versions), so published
	// slices can never be reused — but they can be carved out of chunks,
	// each sized for twice the publishes of the last up to 16: a partition
	// publishing P times allocates about log2(P) times, at most twice the
	// bytes it publishes.
	arena []T
	// ckpts are the ping-pong checkpoint buffers (see Checkpoint).
	ckpts [2]ckpt[T]
	ckptN int
}

// Workload is the relaxation as an async.Workload — also Recoverable,
// Undoable and Progressive; the published data is a partition's border
// value vector.
type Workload[T Label] struct {
	start     func(u graph.NodeID) (unreached, seed T, seeded bool)
	maxSweeps int
	n         int   // nodes over all partitions
	size      int64 // bytes a value takes on the wire
	parts     []*part[T]
}

// New builds the relaxation over subs. When T is float64 and subs carry
// weights, values flow along edge direction and each edge adds its weight
// (SSSP); otherwise values cross every edge both ways unchanged, over the
// graph's undirected closure (CC). start(u) gives node u's unreached value
// and, when u is seeded, the value it starts at instead; only seeded nodes
// start on the frontier. maxLocalIters caps a step's local sweeps (0 =
// sweep until the frontier drains). A directed relaxation shares the
// exchange plans the sub-graphs carry, read-only, once graph.ExchangeCheck
// passes them; an undirected one builds its own with
// graph.BuildExchange. Either's errors are returned as they are.
func New[T Label](subs []*graph.SubGraph, maxLocalIters int, start func(u graph.NodeID) (unreached, seed T, seeded bool)) (*Workload[T], error) {
	weighted := false
	if len(subs) > 0 {
		wl, _ := any(subs[0].WLocal).([][]T) // nil unless T is float64 and the edges weighted
		weighted = wl != nil
	}
	xs, n, err := exchanges(subs, weighted)
	if err != nil {
		return nil, err
	}
	maxSweeps := maxLocalIters
	if maxSweeps <= 0 {
		maxSweeps = async.DefaultMaxSteps
	}
	w := &Workload[T]{start: start, maxSweeps: maxSweeps, n: n, size: int64(unsafe.Sizeof(*new(T))), parts: make([]*part[T], len(subs))}
	for p, s := range subs {
		m := s.NumNodes()
		st := &part[T]{
			sub:    s,
			x:      xs[p],
			val:    make([]T, m),
			active: make([]bool, m),
		}
		for li, u := range s.Nodes {
			v, seed, seeded := start(u)
			if seeded {
				v = seed
			}
			st.val[li], st.active[li] = v, seeded
		}
		if weighted {
			st.wLocal, _ = any(s.WLocal).([][]T)
			remote, _ := any(s.InRemoteW).([][]T)
			st.ghostW = make([]T, 0, len(st.x.Node))
			for _, ws := range remote {
				st.ghostW = append(st.ghostW, ws...)
			}
			if len(st.ghostW) != len(st.x.Node) {
				return nil, fmt.Errorf("minprop: partition %d has %d cross in-edges but %d weights for them", p, len(st.x.Node), len(st.ghostW))
			}
		} else {
			st.inOff, st.inAdj = reverse(s)
		}
		st.lastPub = make([]T, len(st.x.Border))
		for bi, li := range st.x.Border {
			st.lastPub[bi] = st.val[li]
		}
		w.parts[p] = st
	}
	return w, nil
}

// exchanges returns every partition's exchange plan and the node count:
// the directed plans subs carry, checked, or undirected ones built anew.
func exchanges(subs []*graph.SubGraph, directed bool) ([]graph.Exchange, int, error) {
	if !directed {
		return graph.BuildExchange(subs, true)
	}
	check := graph.NewExchangeCheck(subs)
	if err := check.CheckSet(); err != nil {
		return nil, 0, err
	}
	xs := make([]graph.Exchange, len(subs))
	n := 0
	for p, s := range subs {
		if err := check.Check(p); err != nil {
			return nil, 0, err
		}
		xs[p] = s.Exchange
		n += s.NumNodes()
	}
	return xs, n, nil
}

// reverse is s's local reverse adjacency in CSR form: count in-degrees,
// prefix-sum into offsets, then scatter with a copy of the offsets as
// cursors.
func reverse(s *graph.SubGraph) (off, adj []int32) {
	m := s.NumNodes()
	off = make([]int32, m+1)
	for li := range s.Nodes {
		for _, dst := range s.OutLocal[li] {
			off[dst+1]++
		}
	}
	for li := 0; li < m; li++ {
		off[li+1] += off[li]
	}
	adj = make([]int32, off[m])
	cursor := slices.Clone(off[:m])
	for li := range s.Nodes {
		for _, dst := range s.OutLocal[li] {
			adj[cursor[dst]] = int32(li)
			cursor[dst]++
		}
	}
	return off, adj
}

func (w *Workload[T]) Parts() int            { return len(w.parts) }
func (w *Workload[T]) Neighbors(p int) []int { return w.parts[p].x.Neighbors }

// Values gathers every node's value, indexed by global node id.
func (w *Workload[T]) Values() []T {
	out := make([]T, w.n)
	for _, st := range w.parts {
		for li, u := range st.sub.Nodes {
			out[u] = st.val[li]
		}
	}
	return out
}

// Residual implements async.Progressive: the fraction of the partition's
// nodes still at their unreached value — SSSP's unreached nodes, CC's
// nodes no smaller label has reached. Values only fall, so it never
// rises; at the fixed point it is what the input leaves unreachable (for
// CC, the share of nodes that are their component's minimum). A pure
// scan of the values, exact at any boundary, including before the first
// step.
func (w *Workload[T]) Residual(p int) float64 {
	st := w.parts[p]
	if len(st.val) == 0 {
		return 0
	}
	unreached := 0
	for li, v := range st.val {
		if u, _, _ := w.start(st.sub.Nodes[li]); v == u {
			unreached++
		}
	}
	return float64(unreached) / float64(len(st.val))
}

// ckpt is one partition's checkpoint for the crash fault model: the
// values, the active frontier, and the last published border values are
// the state that survives across steps.
type ckpt[T Label] struct {
	val     []T
	active  []bool
	lastPub []T
}

// Checkpoint implements async.Recoverable. It ping-pongs between two
// per-partition buffers: the scheduler commits every checkpoint
// immediately and its log retains only the latest, so the buffer filled
// two Checkpoint calls ago is unreachable and safe to overwrite.
func (w *Workload[T]) Checkpoint(p int) (any, int64) {
	st := w.parts[p]
	c := w.SaveUndo(p, &st.ckpts[st.ckptN]).(*ckpt[T])
	st.ckptN ^= 1
	return c, 16 + w.size*int64(len(c.val)+len(c.lastPub)) + int64(len(c.active))
}

// SaveUndo implements async.Undoable beside Restore: the cross-step state
// in a checkpoint record of the executor's, never one of the ping-pong
// pair. What an undone step carved from the arena was never published and
// is simply not handed out again.
func (w *Workload[T]) SaveUndo(p int, buf any) any {
	c, _ := buf.(*ckpt[T])
	if c == nil {
		c = new(ckpt[T])
	}
	st := w.parts[p]
	c.val = append(c.val[:0], st.val...)
	c.active = append(c.active[:0], st.active...)
	c.lastPub = append(c.lastPub[:0], st.lastPub...)
	return c
}

// Restore implements async.Recoverable: rewind to a checkpoint; replay
// re-relaxes the journaled steps against the store's history.
func (w *Workload[T]) Restore(p int, state any) {
	c := state.(*ckpt[T])
	st := w.parts[p]
	copy(st.val, c.val)
	copy(st.active, c.active)
	copy(st.lastPub, c.lastPub)
}

func (w *Workload[T]) Init(p int) ([]T, int64) {
	st := w.parts[p]
	return append([]T(nil), st.lastPub...), st.sub.Bytes
}

func (w *Workload[T]) Step(p, step int, inputs []async.Snapshot[[]T]) async.StepOutcome[[]T] {
	st := w.parts[p]
	x := &st.x
	var ops int64

	// Relax the cross-partition reads against the snapshots; improvements
	// seed the local frontier.
	for r, li := range x.Node {
		cand := inputs[x.Slot[r]].Data[x.Idx[r]]
		if st.ghostW != nil {
			cand += st.ghostW[r]
		}
		if cand < st.val[li] {
			st.val[li] = cand
			st.active[li] = true
		}
	}
	ops += int64(len(x.Node))

	// Local sweeps over the active frontier until it drains (or the sweep
	// cap leaves residual work for the next step).
	sweeps := 0
	for sweeps < w.maxSweeps {
		var next []int32
		var edges int64
		if st.wLocal != nil {
			next, edges = relaxSweep(st.val, st.active, st.sub.OutLocal, st.wLocal, st.next[:0])
		} else {
			next, edges = sweepLabels(st.val, st.active, st.sub.OutLocal, st.inOff, st.inAdj, st.next[:0])
		}
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

	// Publish border values that fell; monotonicity means any change is
	// material and the stream of publications is finite.
	out := async.StepOutcome[[]T]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  !slices.Contains(st.active, true),
	}
	for bi, li := range x.Border {
		if st.val[li] < st.lastPub[bi] {
			out.Publish = true
			break
		}
	}
	if out.Publish {
		if cap(st.arena)-len(st.arena) < len(x.Border) {
			st.arena = make([]T, 0, min(max(2*cap(st.arena), len(x.Border)), 16*len(x.Border)))
		}
		lo := len(st.arena)
		st.arena = st.arena[:lo+len(x.Border)]
		pub := st.arena[lo:len(st.arena):len(st.arena)]
		for bi, li := range x.Border {
			pub[bi] = st.val[li]
		}
		copy(st.lastPub, pub)
		out.Data = pub
		out.Bytes = 16 + w.size*int64(len(pub))
	}
	return out
}

// relaxSweep is one local Bellman-Ford sweep over weighted edges: every
// active node goes inactive and relaxes its local out-edges. It returns
// next with one entry per value lowered, and the edges examined. A
// function of its own so that the edge loop reads val and the node's two
// lists from registers: inside Step it reloaded three slice headers and
// its own spilled counter per edge (lockstep A/B 0.76-0.83 of the inline
// loop, DESIGN.md §5b).
func relaxSweep[T Label](val []T, active []bool, outLocal [][]int32, wLocal [][]T, next []int32) ([]int32, int64) {
	var edges int64
	outLocal, wLocal = outLocal[:len(active)], wLocal[:len(active)]
	for li, on := range active {
		if !on {
			continue
		}
		active[li] = false
		d := val[li]
		out := outLocal[li]
		w := wLocal[li][:len(out)]
		for ei, dst := range out {
			if nd := d + w[ei]; nd < val[dst] {
				val[dst] = nd
				next = append(next, dst)
			}
		}
		edges += int64(len(out))
	}
	return next, edges
}

// sweepLabels is one local sweep over unweighted edges: every active node
// goes inactive and pushes its value along its local out- and in-edges.
// It returns next with one entry per value lowered, and the edges
// examined. A function of its own that makes room in next once per node,
// so that neither edge loop holds a call: around an append the compiler
// kept the loops' counters on the stack (lockstep A/B 0.84-0.87 of the
// inline loops, DESIGN.md §5b).
func sweepLabels[T Label](val []T, active []bool, outLocal [][]int32, inOff, inAdj, next []int32) ([]int32, int64) {
	var edges int64
	outLocal = outLocal[:len(active)]
	for li, on := range active {
		if !on {
			continue
		}
		active[li] = false
		c := val[li]
		out := outLocal[li]
		in := inAdj[inOff[li]:inOff[li+1]]
		n := len(next)
		next = slices.Grow(next, len(out)+len(in))
		buf := next[:cap(next)]
		for _, dst := range out {
			if c < val[dst] {
				val[dst] = c
				buf[n] = dst
				n++
			}
		}
		for _, src := range in {
			if c < val[src] {
				val[src] = c
				buf[n] = src
				n++
			}
		}
		next = buf[:n]
		edges += int64(len(out) + len(in))
	}
	return next, edges
}
