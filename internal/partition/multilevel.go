package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/stats"
)

// directGrowLimit is the vertex count up to which the Multilevel method
// partitions the fine graph directly (greedy graph growing + refinement)
// instead of coarsening first. Measured on the paper's
// preferential-attachment graphs, direct growing beats
// coarsen-grow-refine whenever it is affordable — our single-move FM
// refinement cannot repair contraction mistakes across hub vertices — so
// the hierarchy is reserved for graphs too large to grow directly.
const directGrowLimit = 400000

// multilevel runs the Metis-style pipeline: coarsen with heavy-edge
// matching until the graph is small relative to k, partition the coarsest
// graph by greedy graph growing, then project back level by level with
// boundary refinement at each step. Graphs of up to directLimit vertices
// skip the hierarchy; Partition passes directGrowLimit, the tests a limit
// small enough for their graphs to cross it.
func multilevel(g *graph.Graph, k int, opts Options, directLimit int) (*Assignment, error) {
	rng := stats.NewRNG(opts.Seed ^ 0x9e3779b9)
	fine, err := buildWGraph(g)
	if err != nil {
		return nil, err
	}

	if fine.n() <= directLimit {
		parts, err := bestInitial(fine, k, opts, rng)
		if err != nil {
			return nil, err
		}
		a := &Assignment{Parts: parts, K: k}
		fixEmptyParts(fine, a, rng)
		return a, nil
	}

	// Coarsening phase. Stop when further contraction would leave too
	// few vertices per partition for growing to work with (
	// 4 vertices/part) or matching stalls.
	type level struct {
		w    *wgraph
		cmap []int32 // fine->coarse map built when coarsening THIS level
	}
	// Contraction is deliberately mild compared to Metis (which coarsens
	// to ~15k vertices): our boundary refinement is a single-move FM
	// variant without hill climbing, so quality is preserved by keeping
	// more structure per level instead of relying on repair.
	levels := []level{{w: fine}}
	target := 16 * k
	if floor := fine.n() / 8; target < floor {
		target = floor
	}
	if target < 4096 {
		target = 4096
	}
	for levels[len(levels)-1].w.n() > target {
		cur := levels[len(levels)-1].w
		coarse, cmap := coarsen(cur, rng)
		if coarse == nil {
			break
		}
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{w: coarse})
	}

	// Initial k-way partition on the coarsest graph.
	coarsest := levels[len(levels)-1].w
	parts, err := bestInitial(coarsest, k, opts, rng)
	if err != nil {
		return nil, err
	}

	// Uncoarsening: project and refine at every finer level.
	for li := len(levels) - 2; li >= 0; li-- {
		cmap := levels[li].cmap
		finer := levels[li].w
		fparts := make([]int32, finer.n())
		for u := range fparts {
			fparts[u] = parts[cmap[u]]
		}
		parts = fparts
		refine(finer, parts, k, opts)
	}

	a := &Assignment{Parts: parts, K: k}
	fixEmptyParts(fine, a, rng)
	return a, nil
}

// bestInitial computes two candidate initial partitions — greedy graph
// growing, and contiguous id-ranges (which exploit any generation-order
// locality the vertex ids carry) — refines both, and keeps the lower cut.
// Metis similarly derives its initial partition from several attempts;
// on the paper's crawl-ordered web graphs the range candidate often wins
// at coarse granularity while growing wins on structureless ids.
func bestInitial(w *wgraph, k int, opts Options, rng *stats.RNG) ([]int32, error) {
	// The candidates only read w and only the grown one is handed rng, so
	// the range candidate runs beside it on a second core; the result is
	// the sequential one.
	ranged := make([]int32, w.n())
	rangedCut := make(chan int64, 1)
	go func() {
		for i := range ranged {
			ranged[i] = int32(i * k / w.n())
		}
		refine(w, ranged, k, opts)
		rangedCut <- cutOf(w, ranged)
	}()
	grown, err := growPartition(w, k, opts, rng)
	if err != nil {
		<-rangedCut
		return nil, err
	}
	refine(w, grown, k, opts)
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

// growPartition produces an initial k-way assignment of w by greedy graph
// growing (Metis's GGGP): k regions grown one at a time, each repeatedly
// absorbing the frontier vertex with the strongest connection to the
// region, until the region reaches its vertex-weight budget.
func growPartition(w *wgraph, k int, opts Options, rng *stats.RNG) ([]int32, error) {
	n := w.n()
	if k > n {
		return nil, fmt.Errorf("partition: k=%d exceeds coarse vertices %d", k, n)
	}
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
	// Grow to the mean size; MaxImbalance slack is left for refinement.
	budget := float64(w.totalVWgt()) / float64(k)
	load := make([]int64, k)

	// Seeds: stride across the vertex-id space so regions align with
	// whatever generation/crawl-order locality the ids carry (vertex ids
	// are meaningful on both fine graphs and our id-preserving coarse
	// graphs); fall back to scanning for any unassigned vertex.
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
			load[p] += int64(w.vwgt[u])
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
		for float64(load[p]) < budget {
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
			if float64(load[p])+float64(w.vwgt[u]) > budget*1.02 {
				continue // too big for the remaining budget; try next
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
		var bestLoad int64
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
		load[best] += int64(w.vwgt[u])
	}
	return parts, nil
}

// refinePasses bounds FM passes per uncoarsening level.
const refinePasses = 4

// refine runs FM-flavored boundary passes: scan boundary vertices, move
// each to the neighbor partition with the largest positive cut gain that
// keeps balance. Passes repeat until no improving move or the pass budget
// is exhausted. This single-move (non-hill-climbing) variant captures
// most of KL/FM's benefit at a fraction of the complexity — adequate for
// a locality-enhancing pre-pass, per the paper's observation that
// partitioning quality only needs to beat naive splits.
func refine(w *wgraph, parts []int32, k int, opts Options) {
	n := w.n()
	budget := float64(w.totalVWgt()) / float64(k) * opts.MaxImbalance
	load := make([]int64, k)
	for u := 0; u < n; u++ {
		load[parts[u]] += int64(w.vwgt[u])
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
				if gain > bestGain && float64(load[p])+float64(w.vwgt[u]) <= budget {
					best, bestGain = p, gain
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best != pu {
				parts[u] = best
				load[pu] -= int64(w.vwgt[u])
				load[best] += int64(w.vwgt[u])
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// fixEmptyParts guarantees no empty partition by stealing a boundary
// vertex from the largest partition for each empty one. Empty partitions
// arise rarely (tiny coarse graphs with aggressive growing) but would
// break the engine's split construction.
func fixEmptyParts(w *wgraph, a *Assignment, rng *stats.RNG) {
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
func bfsGrow(g *graph.Graph, k int, opts Options) (*Assignment, error) {
	w, err := buildWGraph(g)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(opts.Seed ^ 0x51ed2701)
	parts, err := growPartition(w, k, opts.normalized(), rng)
	if err != nil {
		return nil, err
	}
	a := &Assignment{Parts: parts, K: k}
	fixEmptyParts(w, a, rng)
	return a, nil
}
