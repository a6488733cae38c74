package graph

import "fmt"

// SubGraph is one partition's view of the graph, the payload of one
// global map task in both the general (partition-input baseline, §V-B1)
// and eager formulations. Edges are pre-split into partition-internal and
// cross-partition ("inter-component") sets, because the two formulations
// treat them differently: local iterations relax only internal edges;
// global synchronizations reconcile across the cut.
type SubGraph struct {
	// PartID is the partition index.
	PartID int
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

	// LocalSrc / LocalDst are the partition-internal edges as one flat
	// list, in OutLocal's traversal order (source ascending, adjacency
	// order): edge k runs from local index LocalSrc[k] to LocalDst[k].
	// LocalDst is the slab OutLocal's lists are views of, not a copy.
	LocalSrc []int32
	LocalDst []int32

	// OutDeg[i] is Nodes[i]'s total out-degree in the full graph
	// (internal + cross); PageRank divides by it.
	OutDeg []int32

	// InRemote[i] lists the sources of Nodes[i]'s cross-partition
	// in-edges (global ids); InRemoteW the corresponding weights. The
	// driver uses these to recompute ghost contributions after each
	// global synchronization.
	InRemote  [][]NodeID
	InRemoteW [][]float64

	// Bytes is the simulated serialized size of the partition, used to
	// price the DFS read of the split.
	Bytes int64
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
// back, which is what makes the slab, with one source index appended per
// edge, the flat edge list LocalSrc / LocalDst.
func BuildSubGraphs(g *Graph, parts []int32, k int) ([]*SubGraph, error) {
	n := g.NumNodes()
	if len(parts) != n {
		return nil, fmt.Errorf("graph: parts length %d != nodes %d", len(parts), n)
	}
	weighted := g.Weights != nil
	subs := make([]*SubGraph, k)
	for p := range subs {
		subs[p] = &SubGraph{PartID: p}
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
		s.LocalSrc = make([]int32, 0, len(s.LocalDst))
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
				s.LocalSrc = append(s.LocalSrc, ui)
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
	return subs, nil
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
