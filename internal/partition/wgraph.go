package partition

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// wgraph is an edge-weighted undirected graph in CSR form, the working
// representation of the Multilevel and BFS methods (edge weights are
// directed-edge multiplicities).
type wgraph struct {
	xadj   []int32 // index into adjncy per vertex, len n+1
	adjncy []int32 // concatenated neighbor lists
	adjwgt []int32 // parallel edge weights
}

func (w *wgraph) n() int { return len(w.xadj) - 1 }

// neighbors returns the CSR slice views for vertex u.
func (w *wgraph) neighbors(u int32) ([]int32, []int32) {
	lo, hi := w.xadj[u], w.xadj[u+1]
	return w.adjncy[lo:hi], w.adjwgt[lo:hi]
}

// exactWeightLimit is the undirected entry count up to which buildWGraph
// recovers each edge's multiplicity by scanning the directed lists. For
// larger graphs that scan would be O(E*deg); they get unit weights — cut
// quality is insensitive to the 1-vs-2 distinction but build time is not.
// The limit decides which graphs get which weights, so moving it moves
// their assignments.
const exactWeightLimit = 200000

// buildWGraph converts the directed input graph into the undirected CSR
// the partitioner works on. Parallel directed edges (u->v plus v->u)
// merge into one undirected edge of weight 2, matching how Metis
// consumes symmetrized web graphs.
func buildWGraph(g *graph.Graph) (*wgraph, error) {
	xadj, adjncy, err := symmetrize(g)
	if err != nil {
		return nil, err
	}
	n, total := g.NumNodes(), len(adjncy)
	adjwgt := make([]int32, total)
	// Weight: number of directed edges between the pair (1 or 2).
	// Recover multiplicity by scanning the directed graph.
	weightOf := func(u int32, v int32) int32 {
		var w int32
		for _, x := range g.Out[u] {
			if x == v {
				w++
			}
		}
		for _, x := range g.Out[v] {
			if x == u {
				w++
			}
		}
		if w == 0 {
			w = 1
		}
		return w
	}
	if total <= exactWeightLimit {
		for u := 0; u < n; u++ {
			for i := xadj[u]; i < xadj[u+1]; i++ {
				adjwgt[i] = weightOf(int32(u), adjncy[i])
			}
		}
	} else {
		for i := range adjwgt {
			adjwgt[i] = 1
		}
	}
	return &wgraph{xadj: xadj, adjncy: adjncy, adjwgt: adjwgt}, nil
}

// symmetrize returns g's undirected adjacency in CSR form, the way Metis
// treats a web graph as a locality structure: every directed edge appears
// at both endpoints, self-loops are dropped, and each row is sorted and
// deduplicated.
//
// No row is ever sorted: vertices are visited in ascending id c, and c is
// appended to the row of each of its out- and in-neighbours, so every row
// receives its entries in ascending order and a repeat (a duplicate edge,
// or u->v with v->u) is always the row's last entry. Rows are filled at
// their raw capacity and then compacted towards the front of the array.
func symmetrize(g *graph.Graph) (xadj, adjncy []int32, err error) {
	n := g.NumNodes()
	// In-adjacency as CSR. This first pass over the edges is also where
	// an endpoint outside the graph is caught.
	inStart := make([]int32, n+1)
	for u, out := range g.Out {
		for _, v := range out {
			if uint32(v) >= uint32(n) {
				return nil, nil, fmt.Errorf("partition: edge (%d,%d) out of range [0,%d)", u, v, n)
			}
			inStart[v+1]++
		}
	}
	xadj = make([]int32, n+1) // raw row starts: out-degree + in-degree each
	for u, out := range g.Out {
		xadj[u+1] = xadj[u] + int32(len(out)) + inStart[u+1]
		inStart[u+1] += inStart[u]
	}
	in := make([]int32, inStart[n])
	next := slices.Clone(inStart[:n])
	for u, out := range g.Out {
		for _, v := range out {
			in[next[v]] = int32(u)
			next[v]++
		}
	}

	adjncy = make([]int32, xadj[n])
	end := next // end[r] is one past row r's last entry so far
	copy(end, xadj[:n])
	push := func(r, c int32) {
		e := end[r]
		if r != c && (e == xadj[r] || adjncy[e-1] != c) {
			adjncy[e] = c
			end[r] = e + 1
		}
	}
	for c, out := range g.Out {
		for _, r := range out {
			push(r, int32(c))
		}
		for _, r := range in[inStart[c]:inStart[c+1]] {
			push(r, int32(c))
		}
	}
	var w int32
	for u := 0; u < n; u++ {
		row := adjncy[xadj[u]:end[u]]
		xadj[u] = w
		w += int32(copy(adjncy[w:], row))
	}
	xadj[n] = w
	return xadj, adjncy[:w], nil
}
