// Package pagerank implements the paper's PageRank workload (§V-B) in
// both formulations:
//
//   - General: the synchronous MapReduce baseline. Each map task takes a
//     complete partition (the paper's baseline "for which maps operate on
//     complete partitions, as opposed to single node adjacency lists",
//     chosen because it is the more competitive baseline) and emits each
//     node's rank contribution to its out-links; the reduce accumulates
//     contributions and applies the PageRank formula. One global
//     synchronization per sweep over the graph.
//
//   - Eager: the partial-synchronization formulation. Each global map
//     runs local iterations on its sub-graph until the sub-graph's ranks
//     are self-consistent, treating cross-partition contributions as
//     frozen "ghost" values; only then does a global synchronization
//     disseminate ranks across sub-graphs. Serial operation count rises;
//     global synchronizations fall; on a distributed platform time falls
//     with them. A local iteration is the paper's lmap/lreduce pair,
//     computed as one Jacobi sweep over the partition's pull plan and
//     priced as what internal/core's runtime would charge for the pair.
//
// Both use the paper's rank update (equation 1):
//
//	PR(d) = (1-χ) + χ * Σ_{(s,d)∈E} PR(s)/outdeg(s)
//
// with damping χ = 0.85, all ranks initialized to 1, and convergence
// declared when the infinity norm of the rank delta drops below 1e-5.
package pagerank

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// pushContributions is the shared global emission of both formulations:
// every node pushes rank/outdeg to all of its out-links, pre-aggregated
// per destination within the partition, emitted in ascending key order.
// Each destination's contributions are summed in edge traversal order
// (node ascending, OutLocal then OutRemote) and the emission order is
// fixed, so shuffle grouping — and therefore floating-point summation
// order — is identical across runs, which keeps iteration counts
// bit-reproducible. Which destinations a partition pushes to never
// changes, so the accumulator is an array addressed through the push
// plan (buildPushPlan).
func pushContributions(tc *mapreduce.TaskContext[int64, float64], st *state) {
	sub := st.sub
	acc := st.accVals
	clear(acc)
	var ops int64
	e := 0
	for li := range sub.Nodes {
		deg := sub.OutDeg[li]
		if deg == 0 {
			continue
		}
		c := st.rank[li] / float64(deg)
		n := len(sub.OutLocal[li]) + len(sub.OutRemote[li])
		for _, slot := range st.edgeSlot[e : e+n] {
			acc[slot] += c
		}
		e += n
		ops += int64(deg)
	}
	tc.Charge(ops)
	for i, k := range st.dstKeys {
		tc.Emit(k, acc[i])
	}
}

// buildPushPlan fixes the partition's push layout: dstKeys, the distinct
// destinations in ascending order, and edgeSlot, the index into dstKeys
// of every edge pushContributions pushes along, in its traversal order.
// slotOf is scratch with one entry per node of the whole graph, all zero
// on entry and on return.
func (st *state) buildPushPlan(slotOf []int32) {
	sub := st.sub
	edges := 0
	for _, deg := range sub.OutDeg {
		edges += int(deg)
	}
	// edgeSlot first holds each edge's destination id, then its slot.
	st.edgeSlot = make([]int32, 0, edges)
	for li := range sub.Nodes {
		if sub.OutDeg[li] == 0 {
			continue
		}
		for _, dst := range sub.OutLocal[li] {
			st.edgeSlot = append(st.edgeSlot, sub.Nodes[dst])
		}
		st.edgeSlot = append(st.edgeSlot, sub.OutRemote[li]...)
	}
	for _, dst := range st.edgeSlot {
		if slotOf[dst] == 0 {
			slotOf[dst] = 1
			st.dstKeys = append(st.dstKeys, int64(dst))
		}
	}
	slices.Sort(st.dstKeys)
	for i, k := range st.dstKeys {
		slotOf[k] = int32(i)
	}
	for e, dst := range st.edgeSlot {
		st.edgeSlot[e] = slotOf[dst]
	}
	for _, k := range st.dstKeys {
		slotOf[k] = 0
	}
	st.accVals = make([]float64, len(st.dstKeys))
}

// Config parameterizes a PageRank run.
type Config struct {
	// Damping is the paper's χ; Table II uses 0.85.
	Damping float64
	// Epsilon is the global convergence bound on the infinity norm of
	// the per-node rank delta; the paper uses 1e-5.
	Epsilon float64
	// MaxLocalIters caps local iterations inside one gmap (0 = none),
	// and the local sweeps of one asynchronous step, where 0 means
	// AsyncLocalSweeps (async.DefaultMaxSteps restores sweeping to local
	// convergence). The ablation benches set 1 to degrade Eager into
	// General.
	MaxLocalIters int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{Damping: 0.85, Epsilon: 1e-5}
}

func (c Config) validate() error {
	if c.Damping <= 0 || c.Damping >= 1 {
		return fmt.Errorf("pagerank: damping must be in (0,1), got %g", c.Damping)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("pagerank: epsilon must be positive, got %g", c.Epsilon)
	}
	return nil
}

// state is the per-partition mutable payload shared by both formulations.
type state struct {
	sub *graph.SubGraph
	// rank[i] is the current rank of sub.Nodes[i].
	rank []float64
	// dstKeys/edgeSlot are the push plan (buildPushPlan) and accVals
	// pushContributions' accumulator over it. One task owns a state at a
	// time, so unsynchronized reuse is safe.
	dstKeys  []int64
	edgeSlot []int32
	accVals  []float64
	// local is the eager formulation's working arrays; a general run
	// leaves it empty.
	local localSweep
}

// localSweep is what the eager formulation's local iterations work on,
// every array by sub.Pull position: rank is the ranks; ghost[r] is the
// frozen cross-partition contribution sum of the node at position r,
// recomputed at every global synchronization and 0 at the extra
// positions; cur and next are the contributions a sweep reads and those
// it writes, each with the plan's pad position, a +0, at the end.
type localSweep struct {
	rank, ghost, cur, next []float64
}

// Result of a PageRank run.
type Result struct {
	// Ranks[u] is the converged PageRank of node u.
	Ranks []float64
	// Stats carries the iterative run's accounting (global iterations,
	// simulated duration, local sync counts).
	Stats *core.RunStats
}

// Run executes PageRank over the given sub-graphs (from
// graph.BuildSubGraphs) using engine. eager selects the formulation.
func Run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool) (*Result, error) {
	return run(engine, subs, cfg, eager, buildJob(cfg, eager))
}

// run is Run with the per-iteration job given.
func run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool, job *mapreduce.Job[*state, int64, float64]) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("pagerank: no partitions")
	}
	if eager {
		for p, s := range subs {
			if err := checkPull(p, s); err != nil {
				return nil, err
			}
		}
	}
	states, ranks, outDeg := newStates(subs, eager)
	splits := newSplits(engine, states)
	n := len(ranks)

	next := make([]float64, n) // Update scratch, reused every iteration
	driver := &core.Driver[*state, int64, float64]{
		Engine: engine,
		Job:    job,
		Update: func(iter int, out []mapreduce.KV[int64, float64], _ []mapreduce.Split[*state]) (bool, error) {
			// The global reduce emitted the new rank of every node that
			// received contributions; nodes with no in-edges settle at
			// (1 - damping).
			base := 1 - cfg.Damping
			for i := range next {
				next[i] = base
			}
			for _, kv := range out {
				if kv.Key < 0 || kv.Key >= int64(n) {
					return false, fmt.Errorf("pagerank: reduce emitted node %d outside [0,%d)", kv.Key, n)
				}
				next[kv.Key] = kv.Value
			}
			delta := 0.0
			for u := range next {
				d := next[u] - ranks[u]
				if d < 0 {
					d = -d
				}
				if d > delta {
					delta = d
				}
			}
			copy(ranks, next)
			// Disseminate: write new ranks and ghost contributions back
			// into every partition (the paper's cross-sub-graph
			// propagation after a global synchronization).
			for _, st := range states {
				for li, u := range st.sub.Nodes {
					st.rank[li] = ranks[u]
				}
			}
			if eager {
				refreshGhosts(states, ranks, outDeg)
			}
			return delta < cfg.Epsilon, nil
		},
	}
	stats, err := driver.Run(splits)
	if err != nil {
		return nil, err
	}
	return &Result{Ranks: ranks, Stats: stats}, nil
}

// newStates builds every partition's state — initial ranks, push plan
// and, for the eager formulation, ghost sums and the local iterations'
// working arrays — and the global state the driver holds (the simulated
// DFS contents): current rank and out-degree of every node.
func newStates(subs []*graph.SubGraph, eager bool) (states []*state, ranks []float64, outDeg []int32) {
	n := 0
	for _, s := range subs {
		n += s.NumNodes()
	}
	ranks = make([]float64, n)
	outDeg = make([]int32, n)
	states = make([]*state, len(subs))
	planScratch := make([]int32, n)
	for i, s := range subs {
		st := &state{sub: s, rank: make([]float64, s.NumNodes())}
		for li, u := range s.Nodes {
			st.rank[li] = 1 // all nodes start with rank 1 (§V-B)
			ranks[u] = 1
			outDeg[u] = s.OutDeg[li]
		}
		st.buildPushPlan(planScratch)
		if eager {
			m := len(s.Pull.OutDeg)
			st.local = localSweep{
				rank:  make([]float64, m),
				ghost: make([]float64, m),
				cur:   make([]float64, m+1),
				next:  make([]float64, m+1),
			}
		}
		states[i] = st
	}
	if eager {
		refreshGhosts(states, ranks, outDeg)
	}
	return states, ranks, outDeg
}

// newSplits wraps each partition's state as one input split of the
// per-iteration job.
func newSplits(engine *mapreduce.Engine, states []*state) []mapreduce.Split[*state] {
	splits := make([]mapreduce.Split[*state], len(states))
	for i, st := range states {
		splits[i] = mapreduce.Split[*state]{
			ID:      i,
			Data:    st,
			Records: int64(st.sub.NumNodes()),
			Bytes:   st.sub.Bytes,
			Home:    i % engine.Cluster().Config().Nodes,
		}
	}
	return splits
}

// refreshGhosts recomputes every partition's frozen cross-partition
// contribution sums from the current global ranks, by position.
func refreshGhosts(states []*state, ranks []float64, outDeg []int32) {
	for _, st := range states {
		pos := st.sub.Pull.Pos
		for li, srcs := range st.sub.InRemote {
			var sum float64
			for _, s := range srcs {
				sum += ranks[s] / float64(outDeg[s])
			}
			st.local.ghost[pos[li]] = sum
		}
	}
}

// buildJob assembles the per-iteration MapReduce job for the chosen
// formulation. The greduce is shared — as the paper observes, "the local
// reduce and global reduce functions are functionally identical".
func buildJob(cfg Config, eager bool) *mapreduce.Job[*state, int64, float64] {
	job := &mapreduce.Job[*state, int64, float64]{
		Name:      "pagerank-general",
		Partition: mapreduce.Int64Partition,
		Reduce: func(ctx *mapreduce.TaskContext[int64, float64], key int64, values []float64) {
			sum := 0.0
			for _, v := range values {
				sum += v
			}
			ctx.Charge(int64(len(values)))
			ctx.Emit(key, (1-cfg.Damping)+cfg.Damping*sum)
		},
	}
	if !eager {
		job.Map = generalMap
		return job
	}
	job.Name = "pagerank-eager"
	job.Map = eagerMap(cfg)
	return job
}

// generalMap is the baseline gmap: one synchronous sweep — every node
// pushes rank/outdeg to all of its out-links, pre-aggregated per
// destination within the partition (the partition-input baseline the
// paper uses because it is "on par or better than the adjacency-list
// formulation").
func generalMap(ctx *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*state]) {
	pushContributions(ctx, split.Data)
}

// eagerMap is the eager gmap: local iterations to local convergence —
// the largest rank change of a sweep below Epsilon, or MaxLocalIters
// sweeps when that is above 0 — then the global emission. A local
// iteration is the paper's lmap, every node pushing rank/outdeg along
// its partition-internal edges, and lreduce, each node's frozen ghost sum
// plus those contributions in push order, computed as one Jacobi sweep
// (sweepJacobi) over sub.Pull: the sums and the order they are added in
// are the ones lmap/lreduce through core.BuildGMap make, so ranks come
// out bit for bit the same. So does the pricing: what runTask charges
// for the pair, one partial synchronization and an lmap and an lreduce
// operation per local edge a sweep, and the local iteration count.
func eagerMap(cfg Config) mapreduce.MapFunc[*state, int64, float64] {
	base := 1 - cfg.Damping
	return func(tc *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*state]) {
		st := split.Data
		sub := st.sub
		pl, w := &sub.Pull, &st.local
		for li, r := range pl.Pos {
			w.rank[r] = st.rank[li]
			w.cur[r] = st.rank[li] / pl.OutDeg[r]
		}
		for r := sub.NumNodes(); r < len(w.rank); r++ {
			w.rank[r] = base // what a sweep computes there, so no change
		}
		sweeps := 0
		for {
			delta := sweepJacobi(pl, w, base, cfg.Damping)
			w.cur, w.next = w.next, w.cur
			tc.LocalSync()
			sweeps++
			if cfg.MaxLocalIters > 0 && sweeps >= cfg.MaxLocalIters || delta < cfg.Epsilon {
				break
			}
		}
		for li, r := range pl.Pos {
			st.rank[li] = w.rank[r]
		}
		tc.Charge(2 * int64(len(sub.LocalDst)) * int64(sweeps))
		tc.Counter(core.LocalIterationsCounter, int64(sweeps))
		pushContributions(tc, st)
	}
}

// sweepJacobi is one Jacobi sweep of w over a pull plan: per slice, the
// four rows' sums, each started from the row's ghost and adding its
// in-neighbours' contributions from w.cur in push order (the pads after
// them add cur's last entry, a +0), then each row's new rank, its change
// and its new contribution into w.next. It returns the largest rank
// change.
//
// A leaf like sweepSlices, and for the same reason: its edge loop keeps
// the four sums, its cursor and cur in registers
// (TestSweepKernelsKeepNoStackTraffic). It takes the four arrays behind
// one pointer, as it takes the plan: passed as slices, with ghost read
// before the edge loop, the loop reloads a spilled ghost header on every
// entry (go1.24.0, amd64).
//
//go:noinline
func sweepJacobi(pl *graph.PullPlan, w *localSweep, base, damping float64) (delta float64) {
	cur := w.cur
	for s := 1; s < len(pl.Start); s++ {
		i := 4 * (s - 1)
		g := w.ghost[i : i+4]
		a0, a1, a2, a3 := g[0], g[1], g[2], g[3]
		for _, q := range pl.Src[pl.Start[s-1]:pl.Start[s]] {
			a0 += cur[q.R0]
			a1 += cur[q.R1]
			a2 += cur[q.R2]
			a3 += cur[q.R3]
		}
		r, od, c := w.rank[i:i+4], pl.OutDeg[i:i+4], w.next[i:i+4]
		n0 := base + damping*a0
		n1 := base + damping*a1
		n2 := base + damping*a2
		n3 := base + damping*a3
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
