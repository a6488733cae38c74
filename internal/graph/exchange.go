package graph

import "fmt"

// Exchange is one partition's boundary-exchange plan on the asynchronous
// runtime: which of its nodes' values it publishes, which partitions it
// reads, and where every value it reads goes. The graph workloads
// (PageRank, SSSP, connected components) differ in what a value is and
// how a read is combined, not in the plan.
type Exchange struct {
	// Border lists, ascending, the local indices of the nodes whose
	// values the partition publishes: every node another partition reads,
	// that is, one with a cross-partition out-edge — or, undirected, a
	// cross-partition edge in either direction. A published vector is
	// parallel to it.
	Border []int32
	// Neighbors lists the partitions read, in order of first read.
	Neighbors []int
	// Read r takes inputs[Slot[r]].Data[Idx[r]] — what partition
	// Neighbors[Slot[r]] published for its Border[Idx[r]] — into local
	// node Node[r]. Reads run in node order and, within a node, over its
	// InRemote sources in list order, then (undirected) over its OutRemote
	// targets. A directed plan's reads are therefore InRemote flattened in
	// node order, and InRemoteW flattened the same way is parallel to them.
	Slot, Idx, Node []int32
}

// BuildExchange precomputes every partition's exchange plan and returns
// the plans with the node count. undirected is fixed by the algorithm,
// not by the user: values that cross the cut along edges in both
// directions (component labels) need it, values that follow edge
// direction (rank contributions, distances) do not. Node ids must be
// dense in [0, n) over all sub-graphs, every remote node must belong to
// a sub-graph, and its owner must list it on its border.
func BuildExchange(subs []*SubGraph, undirected bool) ([]Exchange, int, error) {
	// Dense ids let flat arrays replace per-node maps — the plan is
	// rebuilt on every run's critical path.
	n := 0
	for _, s := range subs {
		n += s.NumNodes()
	}
	owner := make([]int32, n)
	borderIdx := make([]int32, n) // global node id -> border index on its owner
	for i := range owner {
		owner[i] = -1
		borderIdx[i] = -1
	}
	for p, s := range subs {
		for _, u := range s.Nodes {
			if u < 0 || int(u) >= n {
				return nil, 0, fmt.Errorf("graph: node id %d outside [0,%d)", u, n)
			}
			owner[u] = int32(p)
		}
	}
	xs := make([]Exchange, len(subs))
	for p, s := range subs {
		x := &xs[p]
		for li, u := range s.Nodes {
			if len(s.OutRemote[li]) > 0 || undirected && len(s.InRemote[li]) > 0 {
				borderIdx[u] = int32(len(x.Border))
				x.Border = append(x.Border, int32(li))
			}
		}
	}
	slotOf := make([]int32, len(subs))
	for p, s := range subs {
		x := &xs[p]
		for i := range slotOf {
			slotOf[i] = -1
		}
		for li := range s.Nodes {
			lists := [2][]NodeID{s.InRemote[li]}
			if undirected {
				lists[1] = s.OutRemote[li]
			}
			for _, list := range lists {
				for _, remote := range list {
					if remote < 0 || int(remote) >= n || owner[remote] < 0 {
						return nil, 0, fmt.Errorf("graph: remote node %d has no owner", remote)
					}
					q := int(owner[remote])
					slot := slotOf[q]
					if slot < 0 {
						slot = int32(len(x.Neighbors))
						slotOf[q] = slot
						x.Neighbors = append(x.Neighbors, q)
					}
					bi := borderIdx[remote]
					if bi < 0 {
						return nil, 0, fmt.Errorf("graph: node %d not on partition %d's border", remote, q)
					}
					x.Slot = append(x.Slot, slot)
					x.Idx = append(x.Idx, bi)
					x.Node = append(x.Node, int32(li))
				}
			}
		}
	}
	return xs, n, nil
}
