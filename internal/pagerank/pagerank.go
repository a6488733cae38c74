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
//     runs local MapReduce iterations (lmap/lreduce via internal/core) on
//     its sub-graph until the sub-graph's ranks are self-consistent,
//     treating cross-partition contributions as frozen "ghost" values;
//     only then does a global synchronization disseminate ranks across
//     sub-graphs. Serial operation count rises; global synchronizations
//     fall; on a distributed platform time falls with them.
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
	// MaxLocalIters caps local iterations inside one gmap (0 = none).
	// The ablation benches set 1 to degrade Eager into General.
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
	// ghost[i] is the frozen cross-partition contribution sum for
	// sub.Nodes[i], recomputed at every global synchronization. Only the
	// eager spec reads it, so only an eager run keeps it up to date.
	ghost []float64
	// localDelta is the last local iteration's max rank change (eager).
	localDelta float64
	// scratch receives new ranks during Apply.
	scratch []float64
	// dstKeys/edgeSlot are the push plan (buildPushPlan) and accVals
	// pushContributions' accumulator over it; elems caches the
	// (constant) lmap element list. One task owns a state at a time, so
	// unsynchronized reuse is safe.
	dstKeys  []int64
	edgeSlot []int32
	accVals  []float64
	elems    []int32
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("pagerank: no partitions")
	}
	states, ranks, outDeg := newStates(subs, eager)
	splits := newSplits(engine, states)
	n := len(ranks)

	job := buildJob(cfg, eager)
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
// and, for the eager formulation, ghost sums — and the global state the
// driver holds (the simulated DFS contents): current rank and out-degree
// of every node.
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
		st := &state{
			sub:     s,
			rank:    make([]float64, s.NumNodes()),
			ghost:   make([]float64, s.NumNodes()),
			scratch: make([]float64, s.NumNodes()),
		}
		for li, u := range s.Nodes {
			st.rank[li] = 1 // all nodes start with rank 1 (§V-B)
			ranks[u] = 1
			outDeg[u] = s.OutDeg[li]
		}
		st.buildPushPlan(planScratch)
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
// contribution sums from the current global ranks.
func refreshGhosts(states []*state, ranks []float64, outDeg []int32) {
	for _, st := range states {
		for li := range st.sub.Nodes {
			var sum float64
			for _, s := range st.sub.InRemote[li] {
				sum += ranks[s] / float64(outDeg[s])
			}
			st.ghost[li] = sum
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
	job.Map = core.BuildGMap(eagerSpec(cfg))
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

// eagerSpec wires the paper's lmap/lreduce for PageRank into the partial
// synchronization runtime.
func eagerSpec(cfg Config) *core.LocalSpec[*state, int32, int64, float64] {
	return &core.LocalSpec[*state, int32, int64, float64]{
		// xs: the partition's local node indices (constant, built once).
		Elements: func(st *state) []int32 {
			if st.elems == nil {
				st.elems = make([]int32, len(st.sub.Nodes))
				for i := range st.elems {
					st.elems[i] = int32(i)
				}
			}
			return st.elems
		},
		// lmap: push rank along partition-internal edges only;
		// cross-partition neighbors wait for the global synchronization.
		LMap: func(lc *core.LocalContext[int64, float64], st *state, li int32) {
			sub := st.sub
			deg := sub.OutDeg[li]
			if deg == 0 {
				return
			}
			c := st.rank[li] / float64(deg)
			for _, dst := range sub.OutLocal[li] {
				lc.EmitLocalIntermediate(int64(dst), c)
			}
			lc.Charge(int64(len(sub.OutLocal[li])))
		},
		// lreduce: fold local contributions with the frozen ghost sum.
		LReduce: func(lc *core.LocalContext[int64, float64], st *state, key int64, values []float64) {
			sum := st.ghost[key]
			for _, v := range values {
				sum += v
			}
			lc.Charge(int64(len(values)))
			lc.EmitLocal(key, (1-cfg.Damping)+cfg.Damping*sum)
		},
		// Partial synchronization barrier: integrate new local ranks,
		// measure the local delta.
		Apply: func(st *state, lc *core.LocalContext[int64, float64]) {
			sub := st.sub
			base := 1 - cfg.Damping
			for li := range sub.Nodes {
				nr := base + cfg.Damping*st.ghost[li]
				if v, ok := lc.Value(int64(li)); ok {
					nr = v
				}
				st.scratch[li] = nr
			}
			delta := 0.0
			for li := range st.scratch {
				d := st.scratch[li] - st.rank[li]
				if d < 0 {
					d = -d
				}
				if d > delta {
					delta = d
				}
			}
			copy(st.rank, st.scratch)
			st.localDelta = delta
		},
		Converged: func(st *state, _ *core.LocalContext[int64, float64]) bool {
			return st.localDelta < cfg.Epsilon
		},
		MaxLocalIters: cfg.MaxLocalIters,
		// Global emission: after local convergence every node pushes its
		// rank to all out-links — internal and cross — aggregated per
		// destination; greduce recomputes every rank globally.
		Output: func(tc *mapreduce.TaskContext[int64, float64], st *state, _ *core.LocalContext[int64, float64]) {
			pushContributions(tc, st)
		},
		// Keys are local node indices, 0..len(sub.Nodes)-1.
		KeyIndex: func(k int64) int { return int(k) },
	}
}
