package pagerank

import (
	"fmt"
	"math"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// publishFraction scales the publication threshold relative to Epsilon:
// a partition republishes its boundary contributions only when one moved
// by more than Epsilon*publishFraction. Sub-threshold noise otherwise
// cascades wakeups around cross-partition cycles forever; damping
// guarantees the suppressed residual stays below Epsilon at the fixed
// point (see DESIGN.md).
const publishFraction = 0.1

// AsyncLocalSweeps is q, the most local sweeps one asynchronous step runs
// when Config.MaxLocalIters is 0. Sweeping to local convergence against
// ghosts the next publication replaces buys nothing without a barrier to
// save; a step that stops at q publishes what it has and is not
// quiescent, so the global stopping test is unchanged. Chosen by the
// localsweeps experiment's rule (DESIGN.md, EXPERIMENTS.md): the lowest
// geometric-mean sim_s among the bounds that slow no cell of the grid.
// The rule picks 3 on Graph A ÷2 in 32 parts and ÷4 in 16 (the
// benchmark's 4 375-node shape); on ÷8 in 8 alone it picks 2, which slows
// a cell of each of the other two. On partitions of a few hundred nodes
// a sweep costs less than a publish, and runs there take up to about
// 1.3 % more sim_s than with full local sweeps (CluE, S = 4, 350 nodes a
// partition). Regenerate the evidence with
//
//	go run ./cmd/asyncmr -scale 4 localsweeps
//
// whose printed rule must name this value (CI checks it), and -scale 2
// and 8 for the other two shapes.
const AsyncLocalSweeps = 3

// AsyncResult of a fully-asynchronous PageRank run.
type AsyncResult struct {
	// Ranks[u] is the converged PageRank of node u.
	Ranks []float64
	// Stats carries the asynchronous run's accounting.
	Stats *async.RunStats
}

// asyncState is one partition's worker payload: a dense local
// Gauss-Seidel solver over its state plus the plan (graph.Exchange) to
// publish its border nodes' contributions (rank/outdeg) and add up the
// ones it reads from neighbor snapshots. The extra positions hold
// 1-Damping and a ghost of 0 and stay there (no in-edge, no read). A
// sweep reads and writes contrib in place, the sweep's own quotient, so
// rank and contrib never disagree; it lasts from step to step, and
// Restore rebuilds it from rank.
type asyncState struct {
	state
	// lastPub is the last published contribution vector itself (parallel
	// to border), for change detection. A published vector is immutable,
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
	states []asyncState
}

func (w *asyncWorkload) Parts() int            { return len(w.states) }
func (w *asyncWorkload) Neighbors(p int) []int { return w.states[p].sub.Exchange.Neighbors }

// Residual implements async.Progressive: the largest rank delta the
// partition's most recent step observed. Before the first step it is
// the initial rank magnitude (every node starts at rank 1, §V-B).
func (w *asyncWorkload) Residual(p int) float64 { return w.states[p].lastDelta }

// asyncCkpt is one partition's checkpoint for the crash fault model:
// the mutable cross-step state is the rank vector and the last
// published contributions. ghost is per-step scratch, rebuilt from
// inputs before it is read, and contrib is a function of rank, so
// neither needs capture. lastDelta is there for the undo buffer, which
// is the same record (a recovery's replay rebuilds it anyway).
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
	st := &w.states[p]
	c.rank = append(c.rank[:0], st.rank[:st.sub.NumNodes()]...)
	c.lastPub, c.lastDelta = st.lastPub, st.lastDelta
	return c
}

// Restore implements async.Recoverable: rewind the partition to a
// checkpoint, contributions rebuilt from the ranks bit for bit; the
// runtime then replays the journaled steps, which rebuilds the lost
// sweeps deterministically.
func (w *asyncWorkload) Restore(p int, state any) {
	c := state.(*asyncCkpt)
	st := &w.states[p]
	copy(st.rank, c.rank)
	st.fillContrib()
	st.lastPub, st.lastDelta = c.lastPub, c.lastDelta
}

func (w *asyncWorkload) Init(p int) ([]float64, int64) {
	st := &w.states[p]
	return st.lastPub, st.sub.Bytes
}

func (w *asyncWorkload) Step(p, step int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	st := &w.states[p]
	x := &st.sub.Exchange
	cfg := w.cfg
	var ops int64

	// Integrate neighbor snapshots into the ghost contributions.
	st.clearGhosts()
	for r, pos := range st.read {
		st.ghost[pos] += inputs[x.Slot[r]].Data[x.Idx[r]]
	}
	ops += int64(len(st.read))

	// Local Gauss-Seidel sweeps against frozen ghosts, until local
	// convergence or the sweep bound, pulled over sub.Pull in place: a
	// slice reads the contributions the slices before it wrote in this
	// sweep. A node without out-edges gets contribution +Inf; no edge and
	// no border entry reads it. A step stopped at the bound has a largest
	// delta of at least Epsilon, so it is not quiescent and the runtime
	// steps the partition again.
	sub := st.sub
	perSweep := sweepOps(sub)
	base := 1 - cfg.Damping
	startDelta := 0.0
	sweeps := 0
	maxSweeps := cfg.sweepBound()
	for sweeps < maxSweeps {
		delta := sweepSlices(&sub.Pull, st.rank, st.contrib, st.ghost, base, cfg.Damping)
		ops += perSweep
		sweeps++
		if delta > startDelta {
			startDelta = delta
		}
		if delta < cfg.Epsilon {
			break
		}
	}

	st.lastDelta = startDelta

	// Publish boundary contributions only on material change.
	pubEps := cfg.Epsilon * publishFraction
	changed := false
	for bi, pos := range st.border {
		d := st.contrib[pos] - st.lastPub[bi]
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
		pub := make([]float64, len(st.border))
		for bi, pos := range st.border {
			pub[bi] = st.contrib[pos]
		}
		st.lastPub = pub
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 8*int64(len(pub))
	}
	return out
}

// sweepBound is the most local sweeps one asynchronous step of c runs:
// MaxLocalIters, or AsyncLocalSweeps when that is 0.
func (c Config) sweepBound() int {
	if c.MaxLocalIters > 0 {
		return c.MaxLocalIters
	}
	return AsyncLocalSweeps
}

// sweepOps is what one local sweep of sub is priced at: what a per-node
// walk counts, the edges and two operations a node, not the pull plan's
// extra positions and pads.
func sweepOps(sub *graph.SubGraph) int64 {
	return int64(len(sub.LocalDst)) + 2*int64(sub.NumNodes())
}

// BoundedStepOps is the priced operation count of the local sweeps of one
// asynchronous step of sub that runs all AsyncLocalSweeps of them.
func BoundedStepOps(sub *graph.SubGraph) int64 { return AsyncLocalSweeps * sweepOps(sub) }

// sweepSlices is one Gauss-Seidel sweep over a pull plan, in place: per
// slice, the four rows' in-contributions summed side by side from contrib,
// then each row's new rank, its change and its new contribution (back into
// contrib) straight from the sums. A slice reads what the slices before it
// wrote in this sweep, while its own four rows read one another's values
// from before it. It returns the largest rank change (math.Abs, not a sign
// branch: a -0 or NaN difference passes d > delta either way).
//
// Every row adds its in-neighbours in push order, from +0, and pads add
// contrib's last entry, a +0, after them (DESIGN.md §5b). rank and ghost
// have one entry per position, contrib one more.
//
// A leaf, kept so by go:noinline, and handed the plan rather than its
// arrays, for the register allocator's sake: the edge loop keeps its four
// sums, its cursor and contrib in registers and touches no stack slot
// (TestSweepKernelsKeepNoStackTraffic); the plan's slice headers are
// reloaded once a slice, not once an entry.
//
//go:noinline
func sweepSlices(pl *graph.PullPlan, rank, contrib, ghost []float64, base, damping float64) (delta float64) {
	for s := 1; s < len(pl.Start); s++ {
		var a0, a1, a2, a3 float64
		for _, q := range pl.Src[pl.Start[s-1]:pl.Start[s]] {
			a0 += contrib[q.R0]
			a1 += contrib[q.R1]
			a2 += contrib[q.R2]
			a3 += contrib[q.R3]
		}
		i := 4 * (s - 1)
		r, g, od, c := rank[i:i+4], ghost[i:i+4], pl.OutDeg[i:i+4], contrib[i:i+4]
		n0 := base + damping*(a0+g[0])
		n1 := base + damping*(a1+g[1])
		n2 := base + damping*(a2+g[2])
		n3 := base + damping*(a3+g[3])
		if d := math.Abs(n0 - r[0]); d > delta {
			delta = d
		}
		if d := math.Abs(n1 - r[1]); d > delta {
			delta = d
		}
		if d := math.Abs(n2 - r[2]); d > delta {
			delta = d
		}
		if d := math.Abs(n3 - r[3]); d > delta {
			delta = d
		}
		r[0], r[1], r[2], r[3] = n0, n1, n2, n3
		c[0], c[1], c[2], c[3] = n0/od[0], n1/od[1], n2/od[2], n3/od[3]
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("pagerank: no partitions")
	}
	w, n, err := buildAsyncWorkload(mapreduce.NewEngine(c), subs, cfg)
	if err != nil {
		return nil, err
	}
	stats, err := async.Run(c, w, opt)
	if err != nil {
		return nil, err
	}
	return w.result(n, stats), nil
}

// result reads the n ranks the partitions settled on.
func (w *asyncWorkload) result(n int, stats *async.RunStats) *AsyncResult {
	ranks := make([]float64, n)
	for i := range w.states {
		w.states[i].readRanks(ranks)
	}
	return &AsyncResult{Ranks: ranks, Stats: stats}
}

// checkPull rejects partition p's sub-graph unless its pull plan and flat
// edge list match its adjacency lists. The local sweeps and the global
// emission read the plan only; a sub-graph built without it, or edited
// since, would lose local edges without a sign or index out of range.
// The flat edge list is what a sweep is priced at.
func checkPull(p int, s *graph.SubGraph) error {
	local := 0
	for _, adj := range s.OutLocal {
		local += len(adj)
	}
	if len(s.LocalDst) != local {
		return fmt.Errorf("pagerank: partition %d lists %d local edges but its flat edge list holds %d destinations",
			p, local, len(s.LocalDst))
	}
	if err := s.Pull.Check(s.NumNodes(), local); err != nil {
		return fmt.Errorf("pagerank: partition %d: %w", p, err)
	}
	return nil
}

// buildAsyncWorkload builds every partition's solver state around the
// exchange plan its sub-graph carries, which it shares read-only, on
// engine's tasks (checkEach): a partition's state is filled once its
// plan and pull plan pass their checks. Every array is carved from one
// slab per element type, so the allocations do not grow with the
// partition count.
func buildAsyncWorkload(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config) (*asyncWorkload, int, error) {
	n, floats, ints := 0, 0, 0
	for _, s := range subs {
		n += s.NumNodes()
		floats += 3*len(s.Pull.OutDeg) + 1 + len(s.Exchange.Border)
		ints += len(s.Exchange.Node) + len(s.Exchange.Border)
	}
	fs, is := make([]float64, floats), make([]int32, ints)
	states := make([]asyncState, len(subs))
	for p, s := range subs {
		st, x, m := &states[p], &s.Exchange, len(s.Pull.OutDeg)
		st.sub = s
		st.rank, st.ghost, st.contrib, st.lastPub = take(&fs, m), take(&fs, m), take(&fs, m+1), take(&fs, len(x.Border))
		st.read, st.border = take(&is, len(x.Node)), take(&is, len(x.Border))
	}
	if err := checkEach(engine, subs, func(p int) { states[p].init(cfg) }); err != nil {
		return nil, 0, err
	}
	return &asyncWorkload{cfg: cfg, states: states}, n, nil
}

// checkEach runs, on engine's tasks, the check of what spans the set of
// exchange plans subs carry and, for every partition, the checks of its
// exchange plan and pull plan followed by fill(p). The set's error comes
// first, then the lowest failing partition's.
func checkEach(engine *mapreduce.Engine, subs []*graph.SubGraph, fill func(p int)) error {
	check := graph.NewExchangeCheck(subs)
	errs := make([]error, 1+len(subs))
	panicked := engine.ForEachTask(len(errs), func(i int) {
		if i == 0 {
			if err := check.CheckSet(); err != nil {
				errs[0] = fmt.Errorf("pagerank: %w", err)
			}
			return
		}
		p := i - 1
		if err := check.Check(p); err != nil {
			errs[i] = fmt.Errorf("pagerank: %w", err)
		} else if errs[i] = checkPull(p, subs[p]); errs[i] == nil {
			fill(p)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if panicked != nil {
		return fmt.Errorf("pagerank: %w", panicked)
	}
	return nil
}

// take cuts the next n entries off *slab, capacity-limited.
func take[T any](slab *[]T, n int) []T {
	v := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return v
}

// init fills the partition's state (state.init); the residual before
// the first step, the initial rank magnitude; and the last published
// contributions, the border's initial ones.
func (st *asyncState) init(cfg Config) {
	st.state.init(cfg.Damping)
	st.lastDelta = 1
	for bi, r := range st.border {
		st.lastPub[bi] = st.contrib[r]
	}
}
