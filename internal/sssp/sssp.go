// Package sssp implements the paper's Single Source Shortest Path
// workload (§V-C) in both formulations.
//
// General: the synchronous Bellman-Ford MapReduce. Each map task takes a
// partition ("like in PageRank, we take a partition as input instead of a
// single node's adjacency list, without any loss in performance") and
// emits, for every known node u and out-edge (u,v), the path candidate
// dist(u) + w(u,v); the reduce takes the minimum per destination. One
// global synchronization per relaxation sweep.
//
// Eager: each global map relaxes paths inside its sub-graph to local
// convergence through lmap/lreduce iterations (asynchronous
// label-correcting within the partition), then a global synchronization
// accounts for cross-partition edges. "Since most real-world graphs are
// heavy-tailed, edges across partitions are rare and hence we expect a
// decrease in the number of global iterations, with bulk of the work
// performed in the local iterations."
//
// A global iteration of either is the MapReduce job it models, run
// without records: each map task leaves its candidates in slots fixed
// once per run, one per own node and one per distinct remote
// destination, a gather takes the minimum over each node's slots, and the
// job is priced from the per-task counts the engine would record
// (mapreduce.Engine.Price), a finite slot being one record. The minimum
// is order-free, so no value order needs keeping. The job through
// internal/mapreduce and internal/core is the tests' oracle.
//
// Distances start at 0 for the source and +Inf elsewhere; convergence is
// declared when a global iteration improves no distance.
package sssp

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/minprop"
)

// Config parameterizes an SSSP run.
type Config struct {
	// Source is the source node (global id).
	Source graph.NodeID
	// MaxLocalIters caps local iterations inside one gmap (0 = none).
	// It may not be negative.
	MaxLocalIters int
}

// state is one partition's mutable payload.
type state struct {
	sub *graph.SubGraph
	// dist[i] is the best known distance of sub.Nodes[i] from the
	// source.
	dist []float64
	// active[i] marks nodes whose distance improved since they last
	// relaxed their local out-edges — the frontier for the next local
	// sweep. It survives the global barrier: a sweep cap can end a task
	// with the frontier unfinished.
	active []bool
	// cand[i] is the best candidate a sweep has found for sub.Nodes[i],
	// +Inf between sweeps.
	cand []float64
	// slots is the partition's window of the run's slots, +Inf between
	// iterations: slot li is own node li's, then one per distinct remote
	// destination. remSlot[e] is the slot of the partition's e-th remote
	// edge in traversal order (node ascending, OutRemote order).
	slots   []float64
	remSlot []int32
}

// Result of an SSSP run.
type Result struct {
	// Dist[u] is the shortest distance from the source to u
	// (+Inf if unreachable).
	Dist []float64
	// Stats carries the iterative run's accounting.
	Stats *core.RunStats
}

// validate checks that subs are weighted partitions holding cfg.Source,
// and returns their node count.
func validate(subs []*graph.SubGraph, cfg Config) (int, error) {
	if len(subs) == 0 {
		return 0, fmt.Errorf("sssp: no partitions")
	}
	if subs[0].WLocal == nil {
		return 0, fmt.Errorf("sssp: sub-graphs are unweighted; call Graph.AssignUniformWeights first")
	}
	if cfg.MaxLocalIters < 0 {
		return 0, fmt.Errorf("sssp: MaxLocalIters must not be negative, got %d", cfg.MaxLocalIters)
	}
	n := 0
	for _, s := range subs {
		n += s.NumNodes()
	}
	if cfg.Source < 0 || int(cfg.Source) >= n {
		return 0, fmt.Errorf("sssp: source %d outside [0,%d)", cfg.Source, n)
	}
	return n, nil
}

// Run executes SSSP over the given weighted sub-graphs, one global
// iteration at a time until one improves no distance. eager selects the
// formulation.
func Run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool) (*Result, error) {
	n, err := validate(subs, cfg)
	if err != nil {
		return nil, err
	}
	// A global iteration is every partition's map task, then the gather,
	// then the pricing of the job the engine would have run for them.
	d := newRun(engine, subs, cfg, eager, n)
	stats, err := core.Iterate(func(iter int) (mapreduce.Cost, bool, error) {
		d.improved.Store(false)
		if err := engine.ForEachTask(len(d.states), d.mapTask); err != nil {
			return mapreduce.Cost{}, false, fmt.Errorf("sssp: iteration %d: map phase: %w", iter, err)
		}
		if err := engine.ForEachTask(len(d.reduces), d.gather); err != nil {
			return mapreduce.Cost{}, false, fmt.Errorf("sssp: iteration %d: gather: %w", iter, err)
		}
		return engine.Price(d.maps, d.reduces), !d.improved.Load(), nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dist: d.dist, Stats: stats}, nil
}

// driver is a general or eager run between global iterations: the
// partitions' states, every node's best known distance, the reduce plan
// over the partitions' slots, and what the engine would record for each
// task of one iteration's job.
type driver struct {
	cfg    Config
	eager  bool
	states []*state
	dist   []float64
	// slots holds every partition's state.slots, partition by partition;
	// node u's reduce takes the minimum over slots[src[start[u]:start[u+1]]].
	slots      []float64
	start, src []int32
	// maps[i] and reduces[p] are what map task i and reduce task p of the
	// iteration's job record; improved is whether a reduce task improved
	// a distance.
	maps, reduces []mapreduce.TaskStats
	improved      atomic.Bool
}

// newRun builds a run on engine's cluster over subs, which hold n nodes:
// the initial distances, every partition's state and slot plan, and the
// reduce plan. A map task's input counts are its split's (NumNodes
// records of Bytes).
func newRun(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool, n int) *driver {
	inf := math.Inf(1)
	d := &driver{
		cfg:     cfg,
		eager:   eager,
		states:  make([]*state, len(subs)),
		dist:    make([]float64, n),
		start:   make([]int32, n+1),
		maps:    make([]mapreduce.TaskStats, len(subs)),
		reduces: make([]mapreduce.TaskStats, engine.ReduceSlots()),
	}
	for u := range d.dist {
		d.dist[u] = inf
	}
	d.dist[cfg.Source] = 0
	// keys[j] is slot j's node and ends[i] the end of partition i's
	// slots. slotOf[v] is 1 + the last slot made for remote destination
	// v: the current partition's if it is past the partition's first.
	var keys []graph.NodeID
	ends := make([]int, len(subs))
	slotOf := make([]int32, n)
	for i, s := range subs {
		base, m := len(keys), s.NumNodes()
		st := &state{sub: s, dist: make([]float64, m), active: make([]bool, m), cand: make([]float64, m)}
		for li, u := range s.Nodes {
			st.dist[li], st.cand[li], st.active[li] = d.dist[u], inf, u == cfg.Source
		}
		keys = append(keys, s.Nodes...)
		for _, adj := range s.OutRemote {
			for _, v := range adj {
				if int(slotOf[v]) <= base {
					keys = append(keys, v)
					slotOf[v] = int32(len(keys))
				}
				st.remSlot = append(st.remSlot, slotOf[v]-1-int32(base))
			}
		}
		d.maps[i] = mapreduce.TaskStats{InRecords: int64(m), InBytes: s.Bytes}
		d.states[i], ends[i] = st, len(keys)
	}
	d.slots = make([]float64, len(keys))
	for j := range d.slots {
		d.slots[j] = inf
	}
	base := 0
	for i, st := range d.states {
		st.slots, base = d.slots[base:ends[i]], ends[i]
	}
	// A counting sort of the slots by node: start[u] counts, then ends,
	// then (each slot placed by decrementing it) starts node u's slots.
	for _, k := range keys {
		d.start[k]++
	}
	for u := 1; u <= n; u++ {
		d.start[u] += d.start[u-1]
	}
	d.src = make([]int32, len(keys))
	for j := len(keys) - 1; j >= 0; j-- {
		d.start[keys[j]]--
		d.src[d.start[keys[j]]] = int32(j)
	}
	return d
}

// mapTask is the gmap of partition i. It loads the distances the last
// gather improved, activating their nodes, then fills the own-node slots
// from the local edges (general) or, after the local sweeps, with the
// settled distances (eager), and the remote slots from the remote edges,
// each with the best candidate. It records a record per finite slot, and
// an op per out-edge of a node at a finite distance (general), or per
// such node and its remote out-edges, plus 2 per relaxed edge (eager).
func (d *driver) mapTask(i int) error {
	st := d.states[i]
	sub := st.sub
	for li, u := range sub.Nodes {
		if d.dist[u] < st.dist[li] {
			st.dist[li] = d.dist[u]
			st.active[li] = true
		}
	}
	var ops, sweeps int64
	if d.eager {
		for {
			ops += 2 * st.relax()
			sweeps++
			if !st.settle() || d.cfg.MaxLocalIters > 0 && sweeps >= int64(d.cfg.MaxLocalIters) {
				break
			}
		}
		copy(st.slots, st.dist)
	} else {
		for li, dl := range st.dist {
			if !math.IsInf(dl, 1) {
				offer(st.slots, dl, sub.OutLocal[li], sub.WLocal[li])
				ops += int64(sub.OutDeg[li])
			}
		}
	}
	rem := st.remSlot
	for li, adj := range sub.OutRemote {
		dl, slots := st.dist[li], rem[:len(adj)]
		rem = rem[len(adj):]
		if !math.IsInf(dl, 1) {
			offer(st.slots, dl, slots, sub.WRemote[li])
			if d.eager {
				ops += int64(len(adj)) + 1
			}
		}
	}
	var records int64
	for _, c := range st.slots {
		if !math.IsInf(c, 1) {
			records++
		}
	}
	m := &d.maps[i]
	m.OutRecords, m.OutBytes = records, mapreduce.DefaultRecordSize*records
	m.Ops, m.LocalSyncs = ops, sweeps
	return nil
}

// offer lowers each slots[at[e]] to d + w[e] where that is smaller.
func offer(slots []float64, d float64, at []int32, w []float64) {
	for e, s := range at {
		if c := d + w[e]; c < slots[s] {
			slots[s] = c
		}
	}
}

// gather is reduce task p: the nodes that mapreduce.Int64Partition routes
// to p of len(reduces), u ≡ p mod len(reduces), each taking the minimum
// over its finite slots, one record and one operation each, and keeping
// it if it beats the node's distance. Every slot it reads goes back to
// +Inf. The local reduce and global reduce are functionally identical, as
// the paper observes; this one is the global.
func (d *driver) gather(p int) error {
	inf := math.Inf(1)
	var in, out int64
	improved := false
	for u := p; u < len(d.dist); u += len(d.reduces) {
		best, k := inf, int64(0)
		for _, s := range d.src[d.start[u]:d.start[u+1]] {
			if c := d.slots[s]; !math.IsInf(c, 1) {
				k++
				if c < best {
					best = c
				}
				d.slots[s] = inf
			}
		}
		if k == 0 {
			continue
		}
		in += k
		out++
		if best < d.dist[u] {
			d.dist[u] = best
			improved = true
		}
	}
	if improved {
		d.improved.Store(true)
	}
	d.reduces[p] = mapreduce.TaskStats{
		InRecords:  in,
		OutRecords: out,
		OutBytes:   mapreduce.DefaultRecordSize * out,
		Ops:        in,
	}
	return nil
}

// AsyncResult of a fully-asynchronous SSSP run.
type AsyncResult struct {
	// Dist[u] is the shortest distance from the source to u
	// (+Inf if unreachable). Distance relaxation is monotone, so the
	// asynchronous mode converges to the exact answer at any staleness.
	Dist []float64
	// Stats carries the asynchronous run's accounting.
	Stats *async.RunStats
}

// RunAsync executes SSSP in the fully-asynchronous bounded-staleness
// mode over the given weighted sub-graphs: the min-relaxation of
// internal/minprop along edge direction, every node unreached at +Inf
// but the source, seeded at 0. opt selects the staleness bound and the
// executor; async.Parallel overlaps partition relaxation sweeps on real
// goroutines with virtual-time results identical to the default
// sequential DES.
func RunAsync(c *cluster.Cluster, subs []*graph.SubGraph, cfg Config, opt async.Options) (*AsyncResult, error) {
	if _, err := validate(subs, cfg); err != nil {
		return nil, err
	}
	inf := math.Inf(1)
	w, err := minprop.New(subs, cfg.MaxLocalIters, func(u graph.NodeID) (float64, float64, bool) { return inf, 0, u == cfg.Source })
	if err != nil {
		return nil, fmt.Errorf("sssp: %w", err)
	}
	stats, err := async.Run(c, w, opt)
	if err != nil {
		return nil, err
	}
	return &AsyncResult{Dist: w.Values(), Stats: stats}, nil
}

// relax offers every frontier node's distance plus edge weight to each
// partition-internal out-neighbour's candidate, keeping the smallest,
// and returns the number of edges relaxed.
func (st *state) relax() (edges int64) {
	sub := st.sub
	for li, a := range st.active {
		if !a {
			continue
		}
		d, w := st.dist[li], sub.WLocal[li]
		for ei, dst := range sub.OutLocal[li] {
			if c := d + w[ei]; c < st.cand[dst] {
				st.cand[dst] = c
			}
		}
		edges += int64(len(sub.OutLocal[li]))
	}
	return edges
}

// settle ends a sweep: the nodes whose candidate beats their distance
// take it and form the next frontier, and every candidate goes back to
// +Inf. It reports whether the frontier is non-empty.
func (st *state) settle() (more bool) {
	inf := math.Inf(1)
	for li, c := range st.cand {
		st.active[li] = c < st.dist[li]
		if st.active[li] {
			st.dist[li] = c
			more = true
		}
		st.cand[li] = inf
	}
	return more
}
