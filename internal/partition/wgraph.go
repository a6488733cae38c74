package partition

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/stats"
)

// wgraph is a weighted undirected graph in CSR form, the working
// representation inside the multilevel partitioner (vertex weights are
// merged-node counts, edge weights merged-multiplicity).
type wgraph struct {
	xadj   []int32 // index into adjncy per vertex, len n+1
	adjncy []int32 // concatenated neighbor lists
	adjwgt []int32 // parallel edge weights
	vwgt   []int32 // vertex weights
}

func (w *wgraph) n() int { return len(w.xadj) - 1 }

func (w *wgraph) totalVWgt() int64 {
	var t int64
	for _, x := range w.vwgt {
		t += int64(x)
	}
	return t
}

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

// buildWGraph converts the directed input graph into the undirected
// unit-weight CSR used at the finest level. Parallel directed edges
// (u->v plus v->u) merge into one undirected edge of weight 2, matching
// how Metis consumes symmetrized web graphs.
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
	vwgt := make([]int32, n)
	for i := range vwgt {
		vwgt[i] = 1
	}
	return &wgraph{xadj: xadj, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}, nil
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

// bucketSortByDegree stably reorders the given vertex order into
// ascending-degree buckets (degree capped at 64 for bucketing purposes),
// preserving the randomized order within each bucket.
func bucketSortByDegree(order []int, w *wgraph) {
	const maxBucket = 64
	buckets := make([][]int, maxBucket+1)
	for _, u := range order {
		d := int(w.xadj[u+1] - w.xadj[u])
		if d > maxBucket {
			d = maxBucket
		}
		buckets[d] = append(buckets[d], u)
	}
	i := 0
	for _, b := range buckets {
		i += copy(order[i:], b)
	}
}

// coarsen contracts w by heavy-edge matching: vertices are visited in
// ascending-degree order and matched to the unmatched neighbor with the
// heaviest connecting edge. Returns the coarse graph and the fine→coarse vertex
// map, or (nil, nil) if matching failed to shrink the graph enough to be
// worth another level (Metis's stall criterion).
func coarsen(w *wgraph, rng *stats.RNG) (*wgraph, []int32) {
	n := w.n()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in ascending-degree order (randomized within a
	// degree bucket): matching spokes before hubs keeps hub vertices
	// from being contracted across community boundaries, which matters
	// on the paper's hubs-and-spokes graphs.
	order := rng.Perm(n)
	bucketSortByDegree(order, w)
	matched := 0
	for _, ui := range order {
		u := int32(ui)
		if match[u] >= 0 {
			continue
		}
		adj, wgt := w.neighbors(u)
		var best int32 = -1
		var bestW int32 = -1
		bestDeg := int32(1 << 30)
		for i, v := range adj {
			if v == u || match[v] >= 0 {
				continue
			}
			deg := w.xadj[v+1] - w.xadj[v]
			// Heavy-edge first; break weight ties toward the lower-degree
			// neighbor (prefer spoke-spoke and spoke-hub merges).
			if wgt[i] > bestW || (wgt[i] == bestW && deg < bestDeg) {
				best, bestW, bestDeg = v, wgt[i], deg
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
			matched += 2
		} else {
			match[u] = u // self-matched
		}
	}
	coarseN := n - matched/2
	if float64(coarseN) > 0.95*float64(n) {
		return nil, nil // stalled
	}

	// Number coarse vertices: matched pair gets one id at the lower
	// endpoint's visit; preserve a deterministic order by scanning ids.
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var next int32
	for u := 0; u < n; u++ {
		if cmap[u] >= 0 {
			continue
		}
		cmap[u] = next
		m := match[u]
		if m >= 0 && m != int32(u) {
			cmap[m] = next
		}
		next++
	}

	// Gather each coarse vertex's (≤2) fine members, then build the
	// coarse CSR by accumulating edges through a scatter array.
	cvwgt := make([]int32, next)
	for u := 0; u < n; u++ {
		cvwgt[cmap[u]] += w.vwgt[u]
	}
	members := make([][2]int32, next)
	for i := range members {
		members[i] = [2]int32{-1, -1}
	}
	for u := 0; u < n; u++ {
		m := &members[cmap[u]]
		if m[0] < 0 {
			m[0] = int32(u)
		} else {
			m[1] = int32(u)
		}
	}
	var (
		cxadj   = make([]int32, next+1)
		cadjncy []int32
		cadjwgt []int32
		scatter = make([]int32, next) // coarse neighbor -> position+1, 0 = unset
	)
	for cu := int32(0); cu < next; cu++ {
		start := len(cadjncy)
		for _, u := range members[cu] {
			if u < 0 {
				continue
			}
			adj, wgt := w.neighbors(u)
			for i, v := range adj {
				cv := cmap[v]
				if cv == cu {
					continue // internal edge disappears at this level
				}
				if p := scatter[cv]; p > int32(start) {
					cadjwgt[p-1] += wgt[i]
				} else {
					cadjncy = append(cadjncy, cv)
					cadjwgt = append(cadjwgt, wgt[i])
					scatter[cv] = int32(len(cadjncy))
				}
			}
		}
		// Clear only the scatter entries this vertex touched.
		for i := start; i < len(cadjncy); i++ {
			scatter[cadjncy[i]] = 0
		}
		cxadj[cu+1] = int32(len(cadjncy))
	}
	return &wgraph{xadj: cxadj, adjncy: cadjncy, adjwgt: cadjwgt, vwgt: cvwgt}, cmap
}
