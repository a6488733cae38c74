// Package pagerank implements the paper's PageRank workload (§V-B) in
// both formulations:
//
//   - General: the synchronous MapReduce baseline. Each map task takes a
//     complete partition (the paper's baseline "for which maps operate on
//     complete partitions, as opposed to single node adjacency lists",
//     chosen because it is the more competitive baseline) and sums each
//     node's rank contribution per out-link destination over the
//     partition's pull plan (contribute); the reduce accumulates the
//     partitions' sums and applies the PageRank formula. One global
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
// A global iteration of either is the MapReduce job it models, run
// without records: the map tasks leave their sums in place, a gather over
// a reduce plan fixed once per run adds them in the order the engine's
// shuffle would hand a reduce its values, and the job is priced from the
// per-task counts the engine would record (mapreduce.Engine.Price). The
// job through internal/mapreduce and internal/core is the tests' oracle.
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

// contribute is the shared global map output of both formulations:
// every node's rank/outdeg to each of its out-links, summed per
// destination within the partition into acc, in dstKeys order. Each
// destination's sum starts at 0 and adds its in-neighbours'
// contributions in edge traversal order (node ascending, OutLocal then
// OutRemote), so floating-point summation order is fixed, which keeps
// iteration counts bit-reproducible. The sums are pulled, not scattered:
// the local destinations' over the partition's pull plan, whose rows hold
// the in-neighbours in that order (pullLocal), the remote ones' over the
// emission plan's remote lists (buildEmitPlan).
func (st *state) contribute() {
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
// counted sizes, all but acc, which newStates places. slotOf is scratch
// with one entry per node of the whole graph, all zero on entry and on
// return; in between it holds each destination's in-edge count from the
// partition, a remote one's negated once it is listed, then a remote
// one's index among the remote keys.
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
	// General. It may not be negative.
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
	if c.MaxLocalIters < 0 {
		return fmt.Errorf("pagerank: MaxLocalIters must not be negative, got %d", c.MaxLocalIters)
	}
	return nil
}

// state is the per-partition mutable payload shared by both formulations.
type state struct {
	sub *graph.SubGraph
	// rank[i] is the current rank of sub.Nodes[i].
	rank []float64
	// The emission plan (buildEmitPlan) and contribute's arrays over it.
	// dstKeys is the partition's distinct destinations ascending, and acc
	// one sum per key plus a spare, a window of driver.acc. outSlot[r] is
	// where pullLocal stores the sum of pull position r: its key's index
	// in dstKeys, or the spare for a row with no local in-edge. Remote
	// key j sums the contributions at positions
	// remSrc[remStart[j]:remStart[j+1]], in traversal order, into
	// acc[remSlot[j]]. cur is the contributions by position, with the pad
	// position's +0 last. pushOps is what contribute costs, one
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
// graph.BuildSubGraphs) on engine's cluster, one global iteration at a
// time until the largest rank change is below Epsilon. eager selects the
// formulation.
func Run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool) (*Result, error) {
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
	d := newStates(engine, subs, cfg, eager)
	stats, err := core.Iterate(func(iter int) (mapreduce.Cost, bool, error) {
		delta, cost, err := d.iterate()
		if err != nil {
			return cost, false, fmt.Errorf("pagerank: iteration %d: %w", iter, err)
		}
		return cost, delta < cfg.Epsilon, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Ranks: d.ranks, Stats: stats}, nil
}

// driver is a general or eager run between global iterations: the
// partitions' states, what a Hadoop job driver keeps on the DFS (every
// node's rank and out-degree), the reduce plan, and what the engine would
// record for each task of one iteration's job.
type driver struct {
	engine *mapreduce.Engine
	cfg    Config
	eager  bool
	states []*state
	ranks  []float64
	outDeg []int32
	// The reduce plan, by node: node u's reduce adds
	// acc[src[start[u]:start[u+1]]], the sums of the partitions that
	// emit u in ascending partition order, which is map-task order, the
	// order in which the engine's shuffle hands a reduce its values. acc
	// holds every partition's state.acc, partition by partition.
	start, src []int32
	acc        []float64
	// maps[i] and reduces[p] are what map task i and reduce task p of the
	// iteration's job record. Only a map task's Ops and LocalSyncs change
	// from iteration to iteration; iterate rewrites them.
	maps, reduces []mapreduce.TaskStats
	// deltas[c] is the largest rank change of gather chunk c.
	deltas []float64
}

// iterate runs one global iteration: every partition's map task, then
// the gather, then the pricing of the job that the engine would have run
// for them. It returns the largest rank change.
func (d *driver) iterate() (delta float64, cost mapreduce.Cost, err error) {
	if err = d.engine.ForEachTask(len(d.states), d.mapTask); err != nil {
		return 0, cost, fmt.Errorf("map phase: %w", err)
	}
	if err = d.engine.ForEachTask(len(d.deltas), d.gather); err != nil {
		return 0, cost, fmt.Errorf("gather: %w", err)
	}
	for _, x := range d.deltas {
		delta = max(delta, x)
	}
	return delta, d.engine.Price(d.maps, d.reduces), nil
}

// mapTask is the gmap of partition i: it loads the partition's ranks
// from the driver's, as a task reads its split from the DFS, and in the
// eager formulation its ghost sums and local iterations to local
// convergence, then sums the partition's contributions into its acc.
func (d *driver) mapTask(i int) error {
	st := d.states[i]
	for li, u := range st.sub.Nodes {
		st.rank[li] = d.ranks[u]
	}
	ops, sweeps := st.pushOps, int64(0)
	if d.eager {
		st.refreshGhosts(d.ranks, d.outDeg)
		sweeps = st.iterateLocally(d.cfg)
		ops += 2 * int64(len(st.sub.LocalDst)) * sweeps
	}
	st.contribute()
	d.maps[i].Ops, d.maps[i].LocalSyncs = ops, sweeps
	return nil
}

// gather is the greduce over chunk c of the nodes, len(deltas) chunks
// in all: each node's sum starts at 0 and adds its plan's values in order,
// and its new rank is (1-χ)+χ·sum, which is 1-χ for a node no partition
// emits. The local reduce and global reduce are functionally identical,
// as the paper observes; this one is the global.
func (d *driver) gather(c int) error {
	n, chunks := len(d.ranks), len(d.deltas)
	base, damping := 1-d.cfg.Damping, d.cfg.Damping
	delta := 0.0
	for u := c * n / chunks; u < (c+1)*n/chunks; u++ {
		sum := 0.0
		for _, j := range d.src[d.start[u]:d.start[u+1]] {
			sum += d.acc[j]
		}
		r := base + damping*sum
		if x := math.Abs(r - d.ranks[u]); x > delta {
			delta = x
		}
		d.ranks[u] = r
	}
	d.deltas[c] = delta
	return nil
}

// newStates builds a run on engine's cluster: every partition's state —
// initial ranks, emission plan and, for the eager formulation, the local
// iterations' working arrays — the driver's ranks and out-degrees, the
// reduce plan, and the task counts the engine would record. A map task's
// are its split's (NumNodes records of Bytes) and one 16-byte record
// per destination key; reduce task p's are the records and keys that
// mapreduce.Int64Partition routes to p of the cluster's reduce slots, one
// operation a record. Every array is allocated at its counted size, so
// the allocation count depends on the partition count only
// (TestNewStatesAllocsPerPartition).
func newStates(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool) *driver {
	n := 0
	for _, s := range subs {
		n += s.NumNodes()
	}
	d := &driver{
		engine: engine,
		cfg:    cfg,
		eager:  eager,
		states: make([]*state, len(subs)),
		ranks:  make([]float64, n),
		outDeg: make([]int32, n),
		start:  make([]int32, n+1),
		maps:   make([]mapreduce.TaskStats, len(subs)),
	}
	scratch := make([]int32, n)
	slots := 0
	for i, s := range subs {
		st := &state{sub: s, rank: make([]float64, s.NumNodes())}
		for li, u := range s.Nodes {
			st.rank[li] = 1 // all nodes start with rank 1 (§V-B)
			d.ranks[u] = 1
			d.outDeg[u] = s.OutDeg[li]
		}
		st.buildEmitPlan(scratch)
		if eager {
			m := len(s.Pull.OutDeg)
			st.local = localSweep{
				rank:  make([]float64, m),
				ghost: make([]float64, m),
				cur:   make([]float64, m+1),
				next:  make([]float64, m+1),
			}
		}
		for _, k := range st.dstKeys {
			d.start[k+1]++
		}
		keys := int64(len(st.dstKeys))
		d.maps[i] = mapreduce.TaskStats{
			InRecords:  int64(s.NumNodes()),
			InBytes:    s.Bytes,
			OutRecords: keys,
			OutBytes:   mapreduce.DefaultRecordSize * keys,
			Ops:        st.pushOps,
		}
		slots += len(st.dstKeys) + 1
		d.states[i] = st
	}
	for u := range n {
		d.start[u+1] += d.start[u]
	}
	d.src = make([]int32, d.start[n])
	d.acc = make([]float64, slots)
	slots = 0
	for _, st := range d.states {
		st.acc = d.acc[slots : slots+len(st.dstKeys)+1]
		for i, k := range st.dstKeys {
			d.src[d.start[k]+scratch[k]] = int32(slots + i)
			scratch[k]++
		}
		slots += len(st.acc)
	}
	nReduces := engine.ReduceSlots()
	d.reduces = make([]mapreduce.TaskStats, nReduces)
	for u := range n {
		if in := int64(d.start[u+1] - d.start[u]); in > 0 {
			r := &d.reduces[mapreduce.Int64Partition(int64(u), nReduces)]
			r.InRecords += in
			r.OutRecords++
			r.OutBytes += mapreduce.DefaultRecordSize
			r.Ops += in
		}
	}
	d.deltas = make([]float64, nReduces)
	return d
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

// iterateLocally runs the eager formulation's local iterations on the
// partition and returns how many: sweeps until the largest rank change
// of one is below Epsilon, or MaxLocalIters sweeps when that is above 0.
// A local iteration is the paper's lmap, every node pushing rank/outdeg
// along its partition-internal edges, and lreduce, each node's frozen
// ghost sum plus those contributions in push order, computed as one
// Jacobi sweep (sweepJacobi) over sub.Pull: the sums and the order they
// are added in are the ones lmap/lreduce through core.BuildGMap make, so
// ranks come out bit for bit the same. So does the pricing the caller
// makes of it: one partial synchronization and an lmap and an lreduce
// operation per local edge a sweep.
func (st *state) iterateLocally(cfg Config) (sweeps int64) {
	base := 1 - cfg.Damping
	pl, w := &st.sub.Pull, &st.local
	for li, r := range pl.Pos {
		w.rank[r] = st.rank[li]
		w.cur[r] = st.rank[li] / pl.OutDeg[r]
	}
	for r := st.sub.NumNodes(); r < len(w.rank); r++ {
		w.rank[r] = base // what a sweep computes there, so no change
	}
	for {
		delta := sweepJacobi(pl, w, base, cfg.Damping)
		w.cur, w.next = w.next, w.cur
		sweeps++
		if cfg.MaxLocalIters > 0 && sweeps >= int64(cfg.MaxLocalIters) || delta < cfg.Epsilon {
			break
		}
	}
	for li, r := range pl.Pos {
		st.rank[li] = w.rank[r]
	}
	return sweeps
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
