// Package graph provides the directed-graph substrate for the paper's
// PageRank and Shortest Path workloads: an adjacency-list representation,
// the preferential-attachment generator used to create the paper's input
// graphs (Table II), degree/weight utilities, and a compact binary
// serialization used to size splits for the DFS cost model.
package graph

import (
	"fmt"

	"repro/internal/stats"
)

// NodeID indexes a vertex. Graphs here are dense 0..N-1, so a NodeID is
// also a position.
type NodeID = int32

// Graph is a directed graph in adjacency-list form (the paper's input
// representation: "we use a graph represented as adjacency lists").
// Weights, if present, parallels Out; Weights[u][i] is the weight of the
// edge u->Out[u][i].
type Graph struct {
	// Out[u] lists the destinations of u's out-edges.
	Out [][]NodeID
	// Weights[u][i] is the weight of edge (u, Out[u][i]); nil for
	// unweighted graphs.
	Weights [][]float64
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.Out) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, adj := range g.Out {
		n += len(adj)
	}
	return n
}

// InDegrees returns the in-degree of every node. The paper fits the
// power-law exponent on in-degrees ("the best-fit for inlinks").
func (g *Graph) InDegrees() []int {
	d := make([]int, len(g.Out))
	for _, adj := range g.Out {
		for _, v := range adj {
			d[v]++
		}
	}
	return d
}

// AssignUniformWeights gives every edge a uniform random weight in
// [lo, hi), as the paper does for Shortest Path ("We assign random
// weights to the edges").
func (g *Graph) AssignUniformWeights(lo, hi float64, seed uint64) {
	if hi <= lo {
		panic(fmt.Sprintf("graph: invalid weight range [%g, %g)", lo, hi))
	}
	rng := stats.NewRNG(seed)
	g.Weights = make([][]float64, len(g.Out))
	for u, adj := range g.Out {
		w := make([]float64, len(adj))
		for i := range w {
			w[i] = lo + (hi-lo)*rng.Float64()
		}
		g.Weights[u] = w
	}
}

// AdjacencyBytes returns the simulated serialized size of node u's
// adjacency record: an 8-byte id and degree, 4 bytes per neighbor, plus 8
// bytes per weight. This sizes splits for the DFS read cost model.
func (g *Graph) AdjacencyBytes(u int) int64 {
	b := int64(16 + 4*len(g.Out[u]))
	if g.Weights != nil {
		b += int64(8 * len(g.Out[u]))
	}
	return b
}

// TotalBytes returns the simulated serialized size of the whole graph.
func (g *Graph) TotalBytes() int64 {
	var b int64
	for u := range g.Out {
		b += g.AdjacencyBytes(u)
	}
	return b
}

// Validate checks structural invariants: all endpoints in range and
// weight arrays parallel to adjacency. Returns the first violation.
func (g *Graph) Validate() error {
	n := NodeID(g.NumNodes())
	if g.Weights != nil && len(g.Weights) != int(n) {
		return fmt.Errorf("graph: weights length %d != nodes %d", len(g.Weights), n)
	}
	for u, adj := range g.Out {
		for _, v := range adj {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
			}
		}
		if g.Weights != nil && len(g.Weights[u]) != len(adj) {
			return fmt.Errorf("graph: node %d has %d weights for %d edges", u, len(g.Weights[u]), len(adj))
		}
	}
	return nil
}
