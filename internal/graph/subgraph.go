package graph

import (
	"fmt"
	"slices"
)

// SubGraph is one partition's view of the graph, the payload of one
// global map task in both the general (partition-input baseline, §V-B1)
// and eager formulations. Edges are pre-split into partition-internal and
// cross-partition ("inter-component") sets, because the two formulations
// treat them differently: local iterations relax only internal edges;
// global synchronizations reconcile across the cut.
type SubGraph struct {
	// Nodes lists the partition's global node ids in ascending order.
	Nodes []NodeID

	// OutLocal[i] holds local indices of Nodes[i]'s out-neighbors inside
	// the partition; OutRemote[i] holds global ids of out-neighbors in
	// other partitions. These and the other per-node lists below are
	// capacity-limited views into one contiguous slab per field (see
	// BuildSubGraphs).
	OutLocal  [][]int32
	OutRemote [][]NodeID
	// WLocal / WRemote carry edge weights parallel to OutLocal /
	// OutRemote; nil for unweighted graphs.
	WLocal  [][]float64
	WRemote [][]float64

	// LocalDst is the destinations of the partition-internal edges as one
	// flat list, in OutLocal's traversal order (source ascending,
	// adjacency order). It is the slab OutLocal's lists are views of, not
	// a copy.
	LocalDst []int32

	// Pull is the same edges laid out by destination (see PullPlan).
	Pull PullPlan

	// OutDeg[i] is Nodes[i]'s total out-degree in the full graph
	// (internal + cross); PageRank divides by it.
	OutDeg []int32

	// InRemote[i] lists the sources of Nodes[i]'s cross-partition
	// in-edges (global ids); InRemoteW the corresponding weights. The
	// driver uses these to recompute ghost contributions after each
	// global synchronization.
	InRemote  [][]NodeID
	InRemoteW [][]float64

	// Exchange is the partition's directed exchange plan, as
	// BuildExchange(subs, false) returns it: the partition is fixed
	// before a job starts, and so is who publishes what to whom. Runs
	// share it read-only, after an ExchangeCheck.
	Exchange Exchange

	// Bytes is the simulated serialized size of the partition, used to
	// price the DFS read of the split.
	Bytes int64
}

// PullRows is the height of a PullPlan slice: the number of destinations
// whose in-edges are stored side by side.
const PullRows = 4

// PullQuad is one entry of a PullPlan: one in-neighbour for each of a
// slice's PullRows rows. A struct of scalars rather than an array because
// the compiler keeps the former in registers and copies the latter through
// the stack, in the one loop that reads it.
type PullQuad struct{ R0, R1, R2, R3 int32 }

// PullPlan is a partition's internal edges laid out destination-major, for
// a sweep that sums every node's in-edges in registers instead of
// scattering into an accumulator array. Nodes are placed by ascending
// local in-degree, ties by local index, so that PullRows consecutive
// positions — a slice — have rows of nearly equal length and consecutive
// slices mostly the same length (an inner loop whose trip count the branch
// predictor learns). The positions are rounded up to whole slices; the
// extra ones follow the nodes and have no in-edge.
type PullPlan struct {
	// Pos[i] is the position of the node with local index i.
	Pos []int32
	// Slice s covers positions PullRows*s .. PullRows*s+PullRows-1 and its
	// entries are Src[Start[s]:Start[s+1]]; len(Start) is the slice count
	// plus one.
	Start []int32
	// Src holds each slice's rows side by side: row i of Src[Start[s]+j] is
	// the position of the j-th in-neighbour of position PullRows*s+i,
	// in-neighbours in OutLocal's traversal order (the order a push over
	// the local edges adds them in). A slice has as many entries as its
	// longest row; the shorter rows end in the pad position,
	// PullRows*(len(Start)-1): one past every other position, where a
	// sweep keeps a +0 so that a pad adds nothing.
	Src []PullQuad
	// OutDeg is SubGraph.OutDeg by position, as the float64 PageRank
	// divides by; 1 at the extra positions.
	OutDeg []float64
}

// Check reports what would make a sweep over the plan of a partition with
// the given node and local edge counts index out of range or lose an edge:
// a builder other than BuildSubGraphs, or an edit after it.
func (pl *PullPlan) Check(nodes, localEdges int) error {
	nSlices := (nodes + PullRows - 1) / PullRows
	pad := PullRows * nSlices
	if len(pl.Pos) != nodes || len(pl.Start) != nSlices+1 || len(pl.OutDeg) != pad {
		return fmt.Errorf("pull plan holds %d node positions, %d slice starts and %d out-degrees, want %d, %d and %d",
			len(pl.Pos), len(pl.Start), len(pl.OutDeg), nodes, nSlices+1, pad)
	}
	for i, r := range pl.Pos {
		if r < 0 || int(r) >= nodes {
			return fmt.Errorf("pull plan places node %d at position %d outside [0,%d)", i, r, nodes)
		}
	}
	if pl.Start[0] != 0 || int(pl.Start[nSlices]) != len(pl.Src) {
		return fmt.Errorf("pull plan's slices cover entries [%d,%d) of %d", pl.Start[0], pl.Start[nSlices], len(pl.Src))
	}
	for s := 0; s < nSlices; s++ {
		if pl.Start[s] > pl.Start[s+1] {
			return fmt.Errorf("pull plan's slice %d starts at entry %d, after its end %d", s, pl.Start[s], pl.Start[s+1])
		}
	}
	edges := PullRows * len(pl.Src)
	for k, q := range pl.Src {
		if p := uint32(pad); uint32(q.R0) < p && uint32(q.R1) < p && uint32(q.R2) < p && uint32(q.R3) < p {
			continue // no pad, nothing outside
		}
		for _, r := range [PullRows]int32{q.R0, q.R1, q.R2, q.R3} {
			if r < 0 || int(r) > pad {
				return fmt.Errorf("pull plan's entry %d names position %d outside [0,%d]", k, r, pad)
			}
			if int(r) == pad {
				edges--
			}
		}
	}
	if edges != localEdges {
		return fmt.Errorf("pull plan holds %d edges, the partition has %d local edges", edges, localEdges)
	}
	return nil
}

// NumNodes returns the number of nodes owned by this partition.
func (s *SubGraph) NumNodes() int { return len(s.Nodes) }

// BuildSubGraphs splits g into k partition payloads according to parts
// (node -> partition, as produced by internal/partition). Every partition
// must be non-empty; use partition.Assignment.Validate first.
//
// Construction is count, carve, fill: one pass over the edges counts every
// node's local, remote and in-remote edges; each partition then gets one
// slab per field, and every per-node list is a zero-length view into its
// slab whose capacity is exactly the node's count, so the fill pass
// appends without allocating and an append by a caller reallocates
// instead of running into the next node's list. The fill pass visits
// sources in ascending id and each source's edges in adjacency order;
// InRemote lists inherit that order and pagerank's read plan depends on
// it, and a partition's local edges land in its OutLocal slab front to
// back, which is what makes the slab the flat destination list LocalDst.
func BuildSubGraphs(g *Graph, parts []int32, k int) ([]*SubGraph, error) {
	n := g.NumNodes()
	if len(parts) != n {
		return nil, fmt.Errorf("graph: parts length %d != nodes %d", len(parts), n)
	}
	weighted := g.Weights != nil
	subs := make([]*SubGraph, k)
	for p := range subs {
		subs[p] = &SubGraph{}
	}
	// Assign nodes in ascending id; local[u] is u's position in its
	// partition's Nodes.
	sizes := make([]int, k)
	for u, p := range parts {
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("graph: node %d assigned to invalid partition %d", u, p)
		}
		sizes[p]++
	}
	for p, s := range subs {
		if sizes[p] == 0 {
			return nil, fmt.Errorf("graph: partition %d is empty", p)
		}
		s.Nodes = make([]NodeID, 0, sizes[p])
	}
	local := make([]int32, n)
	for u, p := range parts {
		s := subs[p]
		local[u] = int32(len(s.Nodes))
		s.Nodes = append(s.Nodes, NodeID(u))
	}

	// Count every node's edges by class.
	nLocal, nRemote, nIn := make([]int32, n), make([]int32, n), make([]int32, n)
	for u, adj := range g.Out {
		pu := parts[u]
		for _, v := range adj {
			if parts[v] == pu {
				nLocal[u]++
			} else {
				nRemote[u]++
				nIn[v]++
			}
		}
	}

	// Carve, and size each partition by its nodes' adjacency bytes.
	for _, s := range subs {
		s.OutDeg = make([]int32, len(s.Nodes))
		for i, u := range s.Nodes {
			s.OutDeg[i] = int32(len(g.Out[u]))
			s.Bytes += g.AdjacencyBytes(int(u))
		}
		s.OutLocal, s.LocalDst = carve[int32](s.Nodes, nLocal)
		s.OutRemote, _ = carve[NodeID](s.Nodes, nRemote)
		s.InRemote, _ = carve[NodeID](s.Nodes, nIn)
		if weighted {
			s.WLocal, _ = carve[float64](s.Nodes, nLocal)
			s.WRemote, _ = carve[float64](s.Nodes, nRemote)
			s.InRemoteW, _ = carve[float64](s.Nodes, nIn)
		}
	}

	// Fill: split edges, in source order.
	for u, adj := range g.Out {
		pu := parts[u]
		s := subs[pu]
		ui := local[u]
		for ei, v := range adj {
			var w float64
			if weighted {
				w = g.Weights[u][ei]
			}
			if pv := parts[v]; pv == pu {
				s.OutLocal[ui] = append(s.OutLocal[ui], local[v])
				if weighted {
					s.WLocal[ui] = append(s.WLocal[ui], w)
				}
			} else {
				s.OutRemote[ui] = append(s.OutRemote[ui], v)
				if weighted {
					s.WRemote[ui] = append(s.WRemote[ui], w)
				}
				t := subs[pv]
				vi := local[v]
				t.InRemote[vi] = append(t.InRemote[vi], NodeID(u))
				if weighted {
					t.InRemoteW[vi] = append(t.InRemoteW[vi], w)
				}
			}
		}
	}
	var scratch []int32
	for _, s := range subs {
		scratch = s.buildPull(scratch)
	}
	xs, _, err := BuildExchange(subs, false)
	if err != nil {
		return nil, err
	}
	for p, s := range subs {
		s.Exchange = xs[p]
	}
	return subs, nil
}

// buildPull lays the partition's local edges out as its pull plan.
// scratch is working memory, returned (grown) for the next partition.
func (s *SubGraph) buildPull(scratch []int32) []int32 {
	m := len(s.Nodes)
	nSlices := (m + PullRows - 1) / PullRows
	pad := int32(PullRows * nSlices)
	pl := &s.Pull
	pl.Pos = make([]int32, m)
	pl.Start = make([]int32, nSlices+1)
	pl.OutDeg = make([]float64, pad)

	// Counting sort by in-degree, stable in the local index: inDeg[i] is
	// node i's in-degree, then first[d] the position of the first node of
	// in-degree d.
	scratch = resize(scratch, m)
	inDeg := scratch
	clear(inDeg)
	for _, d := range s.LocalDst {
		inDeg[d]++
	}
	widest := slices.Max(inDeg)
	scratch = resize(scratch, m+int(widest)+2)
	inDeg, first := scratch[:m], scratch[m:]
	clear(first)
	for _, d := range inDeg {
		first[d+1]++
	}
	for d := int32(1); d <= widest; d++ {
		first[d] += first[d-1]
	}
	for i, d := range inDeg {
		r := first[d]
		first[d]++
		pl.Pos[i] = r
		pl.OutDeg[r] = float64(s.OutDeg[i])
		if int(r) == m-1 || r%PullRows == PullRows-1 {
			pl.Start[r/PullRows+1] = d // a slice's last node has its longest row
		}
	}
	for r := m; r < len(pl.OutDeg); r++ {
		pl.OutDeg[r] = 1
	}
	for sl := 0; sl < nSlices; sl++ {
		pl.Start[sl+1] += pl.Start[sl]
	}

	// Scatter the edges, in OutLocal's order, into the rows, laid out as
	// Src will be: at[i] is where node i's next in-neighbour goes. Then
	// end every row in pads and pack the rows four to an entry.
	rowStart := func(r int32) int32 { return PullRows*pl.Start[r/PullRows] + r%PullRows }
	rowEnd := func(r int32) int32 { return PullRows * pl.Start[r/PullRows+1] }
	at := inDeg
	for i, r := range pl.Pos {
		at[i] = rowStart(r)
	}
	scratch = resize(scratch, m+int(rowEnd(pad-1)))
	at, rows := scratch[:m], scratch[m:]
	for i, adj := range s.OutLocal {
		r := pl.Pos[i]
		for _, d := range adj {
			rows[at[d]] = r
			at[d] += PullRows
		}
	}
	for i, r := range pl.Pos {
		for a := at[i]; a < rowEnd(r); a += PullRows {
			rows[a] = pad
		}
	}
	for r := int32(m); r < pad; r++ {
		for a := rowStart(r); a < rowEnd(r); a += PullRows {
			rows[a] = pad
		}
	}
	pl.Src = make([]PullQuad, len(rows)/PullRows)
	for k := range pl.Src {
		q := rows[PullRows*k : PullRows*k+PullRows]
		pl.Src[k] = PullQuad{q[0], q[1], q[2], q[3]}
	}
	return scratch
}

// resize returns b with length n and its first min(n, len(b)) elements
// kept; what lies beyond them is unspecified.
func resize(b []int32, n int) []int32 {
	if n <= cap(b) {
		return b[:n]
	}
	return append(b[:cap(b)], make([]int32, n-cap(b))...)
}

// carve allocates one slab holding counts[u] entries for each u of nodes,
// in order, and returns the per-node views — empty, and capacity-limited to
// the node's own stretch of the slab — and the slab itself.
func carve[T any](nodes []NodeID, counts []int32) ([][]T, []T) {
	total := 0
	for _, u := range nodes {
		total += int(counts[u])
	}
	slab := make([]T, total)
	views := make([][]T, len(nodes))
	lo := 0
	for i, u := range nodes {
		hi := lo + int(counts[u])
		views[i] = slab[lo:lo:hi]
		lo = hi
	}
	return views, slab
}
