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
	MaxLocalIters int
}

// state is one partition's mutable payload.
type state struct {
	sub *graph.SubGraph
	// dist[i] is the best known distance of sub.Nodes[i] from the
	// source.
	dist []float64
	// active[i] marks nodes whose distance improved since they last
	// propagated — the frontier for the next local sweep.
	active []bool
	// anyActive tracks whether the last sweep changed anything.
	anyActive bool
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
		}
		for li, u := range s.Nodes {
			st.dist[li] = dist[u]
			if u == cfg.Source {
				st.active[li] = true
			}
		}
		states[i] = st
	}

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

	job := buildJob(cfg, eager)
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
			// iterations start from the right frontier.
			for _, st := range states {
				st.anyActive = false
				for li, u := range st.sub.Nodes {
					if dist[u] < st.dist[li] {
						st.dist[li] = dist[u]
						st.active[li] = true
						st.anyActive = true
					} else {
						st.active[li] = false
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
	job.Map = core.BuildGMap(eagerSpec(cfg))
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

// eagerSpec wires the paper's lmap/lreduce for SSSP: local Bellman-Ford
// sweeps over the partition's active frontier until no local distance
// improves.
func eagerSpec(cfg Config) *core.LocalSpec[*state, int32, int64, float64] {
	return &core.LocalSpec[*state, int32, int64, float64]{
		// xs: the current local frontier ("considering all the paths in
		// the sub-graph" happens over successive shrinking frontiers).
		Elements: func(st *state) []int32 {
			var elems []int32
			for li, a := range st.active {
				if a {
					elems = append(elems, int32(li))
				}
			}
			return elems
		},
		// lmap: relax partition-internal out-edges of one frontier node.
		LMap: func(lc *core.LocalContext[int64, float64], st *state, li int32) {
			sub := st.sub
			d := st.dist[li]
			for ei, dst := range sub.OutLocal[li] {
				lc.EmitLocalIntermediate(int64(dst), d+sub.WLocal[li][ei])
			}
			lc.Charge(int64(len(sub.OutLocal[li])))
		},
		// lreduce: keep the best candidate per local node.
		LReduce: func(lc *core.LocalContext[int64, float64], st *state, key int64, values []float64) {
			best := math.Inf(1)
			for _, v := range values {
				if v < best {
					best = v
				}
			}
			lc.Charge(int64(len(values)))
			if best < st.dist[key] {
				lc.EmitLocal(key, best)
			}
		},
		// Partial synchronization: fold improvements into the partition
		// state and form the next frontier.
		Apply: func(st *state, lc *core.LocalContext[int64, float64]) {
			for li := range st.active {
				st.active[li] = false
			}
			st.anyActive = false
			lc.State(func(k int64, v float64) {
				if v < st.dist[k] {
					st.dist[k] = v
					st.active[k] = true
					st.anyActive = true
				}
			})
		},
		Converged: func(st *state, _ *core.LocalContext[int64, float64]) bool {
			return !st.anyActive
		},
		MaxLocalIters: cfg.MaxLocalIters,
		// Global emission: every settled node publishes its own locally
		// converged distance (so the global reduction learns what the
		// local iterations discovered) and pushes candidates across its
		// cross-partition out-edges (the inter-component information the
		// local iterations could not use).
		Output: func(tc *mapreduce.TaskContext[int64, float64], st *state, _ *core.LocalContext[int64, float64]) {
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
		},
		// Keys are local node indices, 0..len(sub.Nodes)-1.
		KeyIndex: func(k int64) int { return int(k) },
	}
}
