// Package cc implements connected components on the fully-asynchronous
// bounded-staleness runtime (internal/async): the fourth workload, next
// to PageRank, SSSP and K-Means, and like SSSP a front-end of the
// min-relaxation in internal/minprop. Components are computed by
// min-label propagation over the
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

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/minprop"
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

// RunAsync executes connected components in the fully-asynchronous
// bounded-staleness mode over the given sub-graphs: the min-relaxation
// of internal/minprop over the undirected closure, every node seeded at
// its own id. opt selects the staleness bound (or an adaptive policy) and
// the executor; async.Parallel overlaps partition label sweeps on real
// goroutines with virtual-time results identical to the default
// sequential DES.
func RunAsync(c *cluster.Cluster, subs []*graph.SubGraph, cfg Config, opt async.Options) (*AsyncResult, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("cc: no partitions")
	}
	w, err := minprop.New(subs, cfg.MaxLocalIters, func(u graph.NodeID) (graph.NodeID, graph.NodeID, bool) { return u, u, true })
	if err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	stats, err := async.Run(c, w, opt)
	if err != nil {
		return nil, err
	}
	return &AsyncResult{Comp: w.Values(), Stats: stats}, nil
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
