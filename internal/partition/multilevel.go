package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/stats"
)

// maxImbalance caps a part at maxImbalance × the mean part size while
// refining: Metis's default tolerance.
const maxImbalance = 1.05

// multilevel is the Multilevel method: bestInitial on g's symmetrized
// graph, then fixEmptyParts.
func multilevel(g *graph.Graph, k int, seed uint64) (*Assignment, error) {
	w, err := buildWGraph(g)
	if err != nil {
		return nil, err
	}
	parts, err := bestInitial(w, k)
	if err != nil {
		return nil, err
	}
	a := &Assignment{Parts: parts, K: k}
	fixEmptyParts(a, stats.NewRNG(seed^0x9e3779b9))
	return a, nil
}

// bestInitial computes two candidate partitions — greedy graph growing,
// and contiguous id-ranges (which exploit any generation-order locality
// the vertex ids carry) — refines both, and keeps the lower cut. Metis
// similarly derives its initial partition from several attempts; on the
// paper's crawl-ordered web graphs the range candidate often wins at
// coarse granularity while growing wins on structureless ids.
func bestInitial(w *wgraph, k int) ([]int32, error) {
	// The candidates only read w, so the range candidate runs beside the
	// grown one on a second core; the result is the sequential one.
	ranged := rangeParts(w.n(), k).Parts
	rangedCut := make(chan int64, 1)
	go func() {
		refine(w, ranged, k)
		rangedCut <- cutOf(w, ranged)
	}()
	grown, err := growPartition(w, k)
	if err != nil {
		<-rangedCut
		return nil, err
	}
	refine(w, grown, k)
	grownCut := cutOf(w, grown)
	if <-rangedCut < grownCut {
		return ranged, nil
	}
	return grown, nil
}

// cutOf returns the weighted edge cut of an assignment on w (each
// undirected edge counted once).
func cutOf(w *wgraph, parts []int32) int64 {
	var cut int64
	for u := int32(0); u < int32(w.n()); u++ {
		adj, wgt := w.neighbors(u)
		pu := parts[u]
		for i, v := range adj {
			if v > u && parts[v] != pu {
				cut += int64(wgt[i])
			}
		}
	}
	return cut
}

// growPartition produces a k-way assignment of w, 1 < k < w.n(), by
// greedy graph growing (Metis's GGGP): k regions grown one at a time,
// each repeatedly absorbing the frontier vertex with the strongest
// connection to the region, until the region reaches the mean size.
func growPartition(w *wgraph, k int) ([]int32, error) {
	n := w.n()
	// A frontier gain is at most its vertex's weighted degree, and is
	// kept in 32 bits.
	for u := int32(0); u < int32(n); u++ {
		var deg int64
		for _, x := range w.adjwgt[w.xadj[u]:w.xadj[u+1]] {
			deg += int64(x)
		}
		if deg > math.MaxInt32 {
			return nil, fmt.Errorf("partition: vertex %d has weighted degree %d, above %d", u, deg, math.MaxInt32)
		}
	}
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = -1
	}
	// Grow to the mean size; maxImbalance slack is left for refinement.
	budget := float64(n) / float64(k)
	load := make([]int, k)

	// Seeds: stride across the vertex-id space so regions align with
	// whatever generation/crawl-order locality the ids carry; fall back
	// to scanning for any unassigned vertex.
	nextSeed := func(p int) int32 {
		start := p * n / k
		for i := 0; i < n; i++ {
			u := int32((start + i) % n)
			if parts[u] < 0 {
				return u
			}
		}
		return -1
	}

	// conn[v] is v's edge weight into the region being grown; a lazy
	// max-heap orders frontier candidates by conn.
	conn := make([]int32, n)
	touched := make([]int32, 0, n/k+16)
	h := &gainHeap{}
	for p := 0; p < k; p++ {
		s := nextSeed(p)
		if s < 0 {
			break
		}
		h.reset()
		// Clear conn entries from the previous region.
		for _, v := range touched {
			conn[v] = 0
		}
		touched = touched[:0]

		absorb := func(u int32) {
			parts[u] = int32(p)
			load[p]++
			adj, wgt := w.neighbors(u)
			for i, v := range adj {
				if parts[v] >= 0 {
					continue
				}
				if conn[v] == 0 {
					touched = append(touched, v)
				}
				conn[v] += wgt[i]
				h.push(gainItem{v: v, gain: conn[v]})
			}
		}
		absorb(s)
		// A region stops short of the mean when one more vertex would
		// overshoot it by over 2 %.
		for float64(load[p]) < budget && float64(load[p]+1) <= budget*1.02 {
			var u int32 = -1
			// Pop until a fresh (non-stale, unassigned) entry surfaces.
			for h.len() > 0 {
				it := h.pop()
				if parts[it.v] < 0 && conn[it.v] == it.gain {
					u = it.v
					break
				}
			}
			if u < 0 {
				break // region's component exhausted
			}
			absorb(u)
		}
	}

	// Attach any unassigned vertices to the least-loaded neighboring
	// partition (or globally least-loaded if isolated).
	for u := int32(0); u < int32(n); u++ {
		if parts[u] >= 0 {
			continue
		}
		adj, _ := w.neighbors(u)
		best := int32(-1)
		var bestLoad int
		for _, v := range adj {
			if p := parts[v]; p >= 0 {
				if best < 0 || load[p] < bestLoad {
					best, bestLoad = p, load[p]
				}
			}
		}
		if best < 0 {
			for p := 0; p < k; p++ {
				if best < 0 || load[p] < bestLoad {
					best, bestLoad = int32(p), load[p]
				}
			}
		}
		parts[u] = best
		load[best]++
	}
	return parts, nil
}

// refinePasses bounds the FM passes refine makes.
const refinePasses = 4

// refine runs FM-flavored boundary passes: scan boundary vertices, move
// each to the neighbor partition with the largest positive cut gain that
// keeps balance. Passes repeat until no improving move or the pass budget
// is exhausted. This single-move (non-hill-climbing) variant captures
// most of KL/FM's benefit at a fraction of the complexity — adequate for
// a locality-enhancing pre-pass, per the paper's observation that
// partitioning quality only needs to beat naive splits.
func refine(w *wgraph, parts []int32, k int) {
	n := w.n()
	budget := float64(n) / float64(k) * maxImbalance
	load := make([]int, k)
	for _, p := range parts {
		load[p]++
	}
	// conn[p] accumulates edge weight from the current vertex to
	// partition p; touched tracks which entries to reset.
	conn := make([]int64, k)
	touched := make([]int32, 0, 64)

	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for u := int32(0); u < int32(n); u++ {
			pu := parts[u]
			adj, wgt := w.neighbors(u)
			boundary := false
			for _, v := range adj {
				if parts[v] != pu {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			touched = touched[:0]
			for i, v := range adj {
				pv := parts[v]
				if conn[pv] == 0 {
					touched = append(touched, pv)
				}
				conn[pv] += int64(wgt[i])
			}
			// Best destination by gain = conn[dest] - conn[src].
			best := pu
			var bestGain int64
			for _, p := range touched {
				if p == pu {
					continue
				}
				gain := conn[p] - conn[pu]
				if gain > bestGain && float64(load[p]+1) <= budget {
					best, bestGain = p, gain
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best != pu {
				parts[u] = best
				load[pu]--
				load[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// fixEmptyParts guarantees no empty partition by stealing a vertex from
// the largest partition for each empty one: an empty partition would
// break the engine's split construction.
func fixEmptyParts(a *Assignment, rng *stats.RNG) {
	sizes := a.Sizes()
	for p := 0; p < a.K; p++ {
		if sizes[p] > 0 {
			continue
		}
		// Find the largest partition and move one of its vertices.
		big := 0
		for q := 1; q < a.K; q++ {
			if sizes[q] > sizes[big] {
				big = q
			}
		}
		if sizes[big] <= 1 {
			continue // nothing to steal without emptying another
		}
		// Steal a pseudo-random vertex of partition big.
		idx := rng.Intn(sizes[big])
		for u := range a.Parts {
			if int(a.Parts[u]) == big {
				if idx == 0 {
					a.Parts[u] = int32(p)
					sizes[big]--
					sizes[p]++
					break
				}
				idx--
			}
		}
	}
}

// bfsGrow is the single-level BFS baseline: graph growing directly on the
// input graph with no refinement.
func bfsGrow(g *graph.Graph, k int, seed uint64) (*Assignment, error) {
	w, err := buildWGraph(g)
	if err != nil {
		return nil, err
	}
	parts, err := growPartition(w, k)
	if err != nil {
		return nil, err
	}
	a := &Assignment{Parts: parts, K: k}
	fixEmptyParts(a, stats.NewRNG(seed^0x51ed2701))
	return a, nil
}
