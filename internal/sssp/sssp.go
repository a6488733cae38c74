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
// Distances start at 0 for the source and +Inf elsewhere; convergence is
// declared when a global iteration improves no distance.
package sssp

import (
	"fmt"
	"math"
	"slices"

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

// Run executes SSSP over the given weighted sub-graphs. eager selects the
// formulation.
func Run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool) (*Result, error) {
	return run(engine, subs, cfg, buildJob(cfg, eager))
}

// run is Run with the per-iteration job given.
func run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, job *mapreduce.Job[*state, int64, float64]) (*Result, error) {
	n, err := validate(subs, cfg)
	if err != nil {
		return nil, err
	}

	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[cfg.Source] = 0

	states := make([]*state, len(subs))
	for i, s := range subs {
		st := &state{
			sub:    s,
			dist:   make([]float64, s.NumNodes()),
			active: make([]bool, s.NumNodes()),
			cand:   make([]float64, s.NumNodes()),
		}
		for li, u := range s.Nodes {
			st.dist[li] = dist[u]
			st.cand[li] = math.Inf(1)
			if u == cfg.Source {
				st.active[li] = true
			}
		}
		states[i] = st
	}

	splits := make([]mapreduce.Split[*state], len(states))
	for i, st := range states {
		splits[i] = mapreduce.Split[*state]{
			Data:    st,
			Records: int64(st.sub.NumNodes()),
			Bytes:   st.sub.Bytes,
		}
	}

	driver := &core.Driver[*state, int64, float64]{
		Engine: engine,
		Job:    job,
		Update: func(iter int, out []mapreduce.KV[int64, float64], _ []mapreduce.Split[*state]) (bool, error) {
			improved := false
			for _, kv := range out {
				u := kv.Key
				if u < 0 || u >= int64(n) {
					return false, fmt.Errorf("sssp: reduce emitted node %d outside [0,%d)", u, n)
				}
				if kv.Value < dist[u] {
					dist[u] = kv.Value
					improved = true
				}
			}
			// Disseminate new distances into partitions; activate nodes
			// whose distance improved so the next global map's local
			// iterations start from the right frontier. A node a capped
			// sweep left active stays so.
			for _, st := range states {
				for li, u := range st.sub.Nodes {
					if dist[u] < st.dist[li] {
						st.dist[li] = dist[u]
						st.active[li] = true
					}
				}
			}
			return !improved, nil
		},
	}
	stats, err := driver.Run(splits)
	if err != nil {
		return nil, err
	}
	return &Result{Dist: dist, Stats: stats}, nil
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

// emitSorted mirrors pagerank's deterministic emission of accumulated
// candidates.
func emitSorted(emit func(int64, float64), acc map[int64]float64) {
	keys := make([]int64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		emit(k, acc[k])
	}
}

// minInto keeps the smaller candidate per destination.
func minInto(acc map[int64]float64, key int64, d float64) {
	if old, ok := acc[key]; !ok || d < old {
		acc[key] = d
	}
}

// buildJob assembles the per-iteration job; the reduce (min per node) is
// shared between formulations.
func buildJob(cfg Config, eager bool) *mapreduce.Job[*state, int64, float64] {
	job := &mapreduce.Job[*state, int64, float64]{
		Name:      "sssp-general",
		Partition: mapreduce.Int64Partition,
		Reduce: func(ctx *mapreduce.TaskContext[int64, float64], key int64, values []float64) {
			best := math.Inf(1)
			for _, v := range values {
				if v < best {
					best = v
				}
			}
			ctx.Charge(int64(len(values)))
			ctx.Emit(key, best)
		},
	}
	if !eager {
		job.Map = generalMap
		return job
	}
	job.Name = "sssp-eager"
	job.Map = eagerMap(cfg)
	return job
}

// generalMap performs one synchronous relaxation sweep: every node with a
// finite distance emits a candidate for each out-edge, aggregated (min)
// per destination within the partition.
func generalMap(ctx *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*state]) {
	st := split.Data
	sub := st.sub
	acc := make(map[int64]float64)
	var ops int64
	for li := range sub.Nodes {
		d := st.dist[li]
		if math.IsInf(d, 1) {
			continue
		}
		for ei, dst := range sub.OutLocal[li] {
			minInto(acc, int64(sub.Nodes[dst]), d+sub.WLocal[li][ei])
		}
		for ei, dst := range sub.OutRemote[li] {
			minInto(acc, int64(dst), d+sub.WRemote[li][ei])
		}
		ops += int64(sub.OutDeg[li])
	}
	ctx.Charge(ops)
	emitSorted(ctx.Emit, acc)
}

// eagerMap is the eager gmap: relaxation sweeps over the partition's
// active frontier until no local distance improves, or MaxLocalIters
// sweeps when that is above 0, then the global emission. A sweep is the
// paper's lmap, every frontier node relaxing its partition-internal
// out-edges, and lreduce, the best candidate per node, done as one Jacobi
// sweep (relax, then settle): candidates collect in st.cand against dist
// as the sweep found it, and only the settle that follows moves
// improvements into dist and the next frontier. Its pricing is what the
// lmap/lreduce program costs through core.BuildGMap: a partial
// synchronization a sweep (a partition with no frontier pays one empty
// sweep), an lmap and an lreduce operation per relaxed edge, and the
// local iteration count.
func eagerMap(cfg Config) mapreduce.MapFunc[*state, int64, float64] {
	return func(tc *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*state]) {
		st := split.Data
		var edges int64
		sweeps := 0
		for {
			edges += st.relax()
			tc.LocalSync()
			sweeps++
			if !st.settle() || cfg.MaxLocalIters > 0 && sweeps >= cfg.MaxLocalIters {
				break
			}
		}
		tc.Charge(2 * edges)
		emitSettled(tc, st)
	}
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

// emitSettled is the eager global emission: every node at a finite
// distance publishes it (so the global reduction learns what the local
// sweeps discovered) and pushes candidates across its cross-partition
// out-edges (the inter-component information the local sweeps could not
// use), aggregated (min) per destination.
func emitSettled(tc *mapreduce.TaskContext[int64, float64], st *state) {
	sub := st.sub
	acc := make(map[int64]float64)
	var ops int64
	for li := range sub.Nodes {
		d := st.dist[li]
		if math.IsInf(d, 1) {
			continue
		}
		minInto(acc, int64(sub.Nodes[li]), d)
		for ei, dst := range sub.OutRemote[li] {
			minInto(acc, int64(dst), d+sub.WRemote[li][ei])
		}
		ops += int64(len(sub.OutRemote[li])) + 1
	}
	tc.Charge(ops)
	emitSorted(tc.Emit, acc)
}
