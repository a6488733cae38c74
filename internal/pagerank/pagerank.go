// Package pagerank implements the paper's PageRank workload (§V-B) in
// both formulations:
//
//   - General: the synchronous MapReduce baseline. Each map task takes a
//     complete partition (the paper's baseline "for which maps operate on
//     complete partitions, as opposed to single node adjacency lists",
//     chosen because it is the more competitive baseline) and emits each
//     node's rank contribution to its out-links, summed per destination
//     over the partition's pull plan (pushContributions); the reduce
//     accumulates contributions and applies the PageRank formula. One
//     global synchronization per sweep over the graph.
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
// Reference and CertifiedError measure how far a run stopped from the
// fixed point.
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
// every node's rank/outdeg to each of its out-links, pre-aggregated per
// destination within the partition, emitted in ascending key order.
// Each destination's sum starts at 0 and adds its in-neighbours'
// contributions in edge traversal order (node ascending, OutLocal then
// OutRemote), and the emission order is fixed, so shuffle grouping — and
// therefore floating-point summation order — is identical across runs,
// which keeps iteration counts bit-reproducible. The sums are pulled, not
// scattered: the local destinations' over the partition's pull plan,
// whose rows hold the in-neighbours in that order (pullLocal), the remote
// ones' over the emission plan's remote lists (buildEmitPlan).
func pushContributions(tc *mapreduce.TaskContext[int64, float64], st *state) {
	pl, cur, acc := &st.sub.Pull, st.cur, st.acc
	for li, r := range pl.Pos {
		cur[r] = st.rank[li] / pl.OutDeg[r]
	}
	pullLocal(pl, cur, acc, st.outSlot)
	for j, slot := range st.remSlot {
		sum := 0.0
		for _, r := range st.remSrc[st.remStart[j]:st.remStart[j+1]] {
			sum += cur[r]
		}
		acc[slot] = sum
	}
	tc.Charge(st.pushOps)
	for i, k := range st.dstKeys {
		tc.Emit(k, acc[i])
	}
}

// pullLocal sums, slice by slice of the pull plan, the contributions from
// cur (by position, the pad's +0 last) of each row's in-neighbours, each
// sum starting at 0, and stores row r's at acc[outSlot[r]]. The pads a
// row ends in add +0, which changes no sum. A leaf like sweepJacobi, for
// the same reason (TestSweepKernelsKeepNoStackTraffic).
//
//go:noinline
func pullLocal(pl *graph.PullPlan, cur, acc []float64, outSlot []int32) {
	for s := 1; s < len(pl.Start); s++ {
		var a0, a1, a2, a3 float64
		for _, q := range pl.Src[pl.Start[s-1]:pl.Start[s]] {
			a0 += cur[q.R0]
			a1 += cur[q.R1]
			a2 += cur[q.R2]
			a3 += cur[q.R3]
		}
		o := outSlot[4*(s-1) : 4*s]
		acc[o[0]], acc[o[1]], acc[o[2]], acc[o[3]] = a0, a1, a2, a3
	}
}

// buildEmitPlan fixes the partition's emission plan (see state) from
// counted sizes. slotOf is scratch with one entry per node of the whole
// graph, all zero on entry and on return; in between it holds each
// destination's in-edge count from the partition, a remote one's negated
// once it is listed, then a remote one's index among the remote keys.
func (st *state) buildEmitPlan(slotOf []int32) {
	sub := st.sub
	pl := &sub.Pull
	keys, remKeys, remEdges := 0, 0, 0
	for li, adj := range sub.OutLocal {
		st.pushOps += int64(sub.OutDeg[li])
		for _, d := range adj {
			u := sub.Nodes[d]
			if slotOf[u] == 0 {
				keys++
			}
			slotOf[u]++
		}
		for _, v := range sub.OutRemote[li] {
			if slotOf[v] == 0 {
				keys++
				remKeys++
			}
			slotOf[v]++
		}
		remEdges += len(sub.OutRemote[li])
	}
	st.dstKeys = make([]int64, 0, keys)
	for _, u := range sub.Nodes {
		if slotOf[u] > 0 {
			st.dstKeys = append(st.dstKeys, int64(u))
		}
	}
	for _, adj := range sub.OutRemote {
		for _, v := range adj {
			if slotOf[v] > 0 {
				st.dstKeys = append(st.dstKeys, int64(v))
				slotOf[v] = -slotOf[v]
			}
		}
	}
	slices.Sort(st.dstKeys)

	m := len(pl.OutDeg)
	slab := make([]int32, m+2*remKeys+1+remEdges)
	st.outSlot, slab = slab[:m:m], slab[m:]
	st.remStart, slab = slab[:remKeys+1:remKeys+1], slab[remKeys+1:]
	st.remSlot, st.remSrc = slab[:remKeys:remKeys], slab[remKeys:]
	spare := int32(len(st.dstKeys))
	for r := range st.outSlot {
		st.outSlot[r] = spare
	}
	// Local keys are a subsequence of sub.Nodes, both ascending. A remote
	// key's start is its end for now; the fill below moves it back.
	li, j, end := 0, 0, int32(0)
	for i, k := range st.dstKeys {
		c := slotOf[k]
		if c > 0 {
			for int64(sub.Nodes[li]) != k {
				li++
			}
			st.outSlot[pl.Pos[li]] = int32(i)
			slotOf[k] = 0
			continue
		}
		end -= c
		st.remStart[j], st.remSlot[j] = end, int32(i)
		slotOf[k] = int32(j)
		j++
	}
	st.remStart[remKeys] = end
	for li := len(sub.Nodes) - 1; li >= 0; li-- {
		adj := sub.OutRemote[li]
		for e := len(adj) - 1; e >= 0; e-- {
			j := slotOf[adj[e]]
			st.remStart[j]--
			st.remSrc[st.remStart[j]] = pl.Pos[li]
		}
	}
	for _, i := range st.remSlot {
		slotOf[st.dstKeys[i]] = 0
	}
	st.acc = make([]float64, len(st.dstKeys)+1)
	st.cur = make([]float64, m+1)
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
	if !(c.Damping > 0 && c.Damping < 1) {
		return fmt.Errorf("pagerank: damping must be in (0,1), got %g", c.Damping)
	}
	if !(c.Epsilon > 0) {
		return fmt.Errorf("pagerank: epsilon must be positive, got %g", c.Epsilon)
	}
	return nil
}

// state is the per-partition mutable payload shared by both formulations.
type state struct {
	sub *graph.SubGraph
	// rank[i] is the current rank of sub.Nodes[i].
	rank []float64
	// The emission plan (buildEmitPlan) and pushContributions' arrays
	// over it. dstKeys is the partition's distinct destinations
	// ascending, and acc one sum per key plus a spare. outSlot[r] is
	// where pullLocal stores the sum of pull position r: its key's index
	// in dstKeys, or the spare for a row with no local in-edge. Remote
	// key j sums the contributions at positions
	// remSrc[remStart[j]:remStart[j+1]], in traversal order, into
	// acc[remSlot[j]]. cur is the contributions by position, with the pad
	// position's +0 last. pushOps is what an emission charges, one
	// operation per out-edge. One task owns a state at a time, so
	// unsynchronized reuse is safe.
	dstKeys                            []int64
	acc, cur                           []float64
	outSlot, remStart, remSlot, remSrc []int32
	pushOps                            int64
	// local is the eager formulation's working arrays; a general run
	// leaves it empty.
	local localSweep
}

// localSweep is what the eager formulation's local iterations work on,
// every array by sub.Pull position: rank is the ranks; ghost[r] is the
// frozen cross-partition contribution sum of the node at position r,
// recomputed from the global ranks at the start of every map task and 0
// at the extra positions; cur and next are the contributions a sweep reads and those
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

// run is Run with the per-iteration job given. It wraps the job's map so
// that every map task first loads its partition's ranks, and in the eager
// formulation its ghost sums, from the driver's ranks, as a task reads its
// split from the DFS (the paper's cross-sub-graph propagation after a
// global synchronization).
func run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool, job *mapreduce.Job[*state, int64, float64]) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("pagerank: no partitions")
	}
	for p, s := range subs {
		if err := checkPull(p, s); err != nil {
			return nil, err
		}
	}
	states, ranks, outDeg := newStates(subs, eager)
	noIn := noInEdge(states)
	splits := newSplits(states)
	n := len(ranks)
	base := 1 - cfg.Damping

	gmap := job.Map
	job.Map = func(tc *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*state]) {
		st := split.Data
		for li, u := range st.sub.Nodes {
			st.rank[li] = ranks[u]
		}
		if eager {
			st.refreshGhosts(ranks, outDeg)
		}
		gmap(tc, split)
	}
	driver := &core.Driver[*state, int64, float64]{
		Engine: engine,
		Job:    job,
		Update: func(iter int, out []mapreduce.KV[int64, float64], _ []mapreduce.Split[*state]) (bool, error) {
			// The global reduce emitted the new rank of every node with an
			// in-edge; the others settle at (1 - damping).
			if len(out)+len(noIn) != n {
				return false, fmt.Errorf("pagerank: reduce emitted %d ranks, want %d", len(out), n-len(noIn))
			}
			delta := 0.0
			for _, kv := range out {
				if kv.Key < 0 || kv.Key >= int64(n) {
					return false, fmt.Errorf("pagerank: reduce emitted node %d outside [0,%d)", kv.Key, n)
				}
				if d := math.Abs(kv.Value - ranks[kv.Key]); d > delta {
					delta = d
				}
				ranks[kv.Key] = kv.Value
			}
			for _, u := range noIn {
				if d := math.Abs(base - ranks[u]); d > delta {
					delta = d
				}
				ranks[u] = base
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

// newStates builds every partition's state — initial ranks, emission
// plan and, for the eager formulation, the local iterations' working
// arrays — and the global state the driver holds
// (the simulated DFS contents): current rank and out-degree of every
// node. Every array is allocated at its counted size, so the allocation
// count depends on the partition count only
// (TestNewStatesAllocsPerPartition).
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
		st.buildEmitPlan(planScratch)
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
	return states, ranks, outDeg
}

// noInEdge lists the nodes with no in-edge, local or remote: those no
// reduce emits a rank for.
func noInEdge(states []*state) []graph.NodeID {
	none := func(st *state, li int) bool {
		return st.outSlot[st.sub.Pull.Pos[li]] == int32(len(st.dstKeys)) && len(st.sub.InRemote[li]) == 0
	}
	k := 0
	for _, st := range states {
		for li := range st.sub.Nodes {
			if none(st, li) {
				k++
			}
		}
	}
	list := make([]graph.NodeID, 0, k)
	for _, st := range states {
		for li, u := range st.sub.Nodes {
			if none(st, li) {
				list = append(list, u)
			}
		}
	}
	return list
}

// newSplits wraps each partition's state as one input split of the
// per-iteration job.
func newSplits(states []*state) []mapreduce.Split[*state] {
	splits := make([]mapreduce.Split[*state], len(states))
	for i, st := range states {
		splits[i] = mapreduce.Split[*state]{
			Data:    st,
			Records: int64(st.sub.NumNodes()),
			Bytes:   st.sub.Bytes,
		}
	}
	return splits
}

// refreshGhosts recomputes the partition's frozen cross-partition
// contribution sums from the global ranks, by position.
func (st *state) refreshGhosts(ranks []float64, outDeg []int32) {
	pos := st.sub.Pull.Pos
	for li, srcs := range st.sub.InRemote {
		var sum float64
		for _, s := range srcs {
			sum += ranks[s] / float64(outDeg[s])
		}
		st.local.ghost[pos[li]] = sum
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
