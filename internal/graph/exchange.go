package graph

import (
	"fmt"
	"slices"
)

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
//
// BuildSubGraphs stores each partition's directed plan on its sub-graph
// (SubGraph.Exchange); connected components builds its undirected plans
// per run.
//
// Construction is count, carve, fill, as in BuildSubGraphs: one pass
// counts every partition's border nodes, reads and neighbours; Border,
// Neighbors and the three read arrays then get one slab each, and every
// plan's arrays are empty views capacity-limited to its own stretch, so
// the fill appends without allocating and a caller's append reallocates
// instead of running into the next plan.
func BuildExchange(subs []*SubGraph, undirected bool) ([]Exchange, int, error) {
	n, err := CheckIDs(subs)
	if err != nil {
		return nil, 0, err
	}
	owner := make([]int32, n)
	for p, s := range subs {
		for _, u := range s.Nodes {
			owner[u] = int32(p)
		}
	}
	borderIdx := make([]int32, n) // global node id -> border index on its owner
	for i := range borderIdx {
		borderIdx[i] = -1
	}
	// A node is on the border when another partition reads it. It reads
	// through its InRemote list and then, undirected, its OutRemote list:
	// the first sides entries of its partition's remotes.
	onBorder := func(s *SubGraph, li int) bool {
		return len(s.OutRemote[li]) > 0 || undirected && len(s.InRemote[li]) > 0
	}
	sides := 1
	if undirected {
		sides = 2
	}

	// Count. Here slotOf[q] is the last partition found reading q; in the
	// fill it is q's slot in the plan being filled.
	type sizes struct{ border, reads, neighbors int }
	count := make([]sizes, len(subs))
	var total sizes
	slotOf := make([]int32, len(subs))
	for i := range slotOf {
		slotOf[i] = -1
	}
	for p, s := range subs {
		c := &count[p]
		remotes := [2][][]NodeID{s.InRemote, s.OutRemote}
		for li := range s.Nodes {
			if onBorder(s, li) {
				c.border++
			}
			for _, side := range remotes[:sides] {
				list := side[li]
				for _, remote := range list {
					if remote < 0 || int(remote) >= n {
						return nil, 0, fmt.Errorf("graph: remote node %d has no owner", remote)
					}
					if q := owner[remote]; slotOf[q] != int32(p) {
						slotOf[q] = int32(p)
						c.neighbors++
					}
				}
				c.reads += len(list)
			}
		}
		total.border += c.border
		total.reads += c.reads
		total.neighbors += c.neighbors
	}

	// Carve.
	xs := make([]Exchange, len(subs))
	border := make([]int32, total.border)
	reads := make([]int32, 3*total.reads)
	neighbors := make([]int, total.neighbors)
	for p := range xs {
		x, c := &xs[p], count[p]
		x.Border, border = border[:0:c.border], border[c.border:]
		x.Neighbors, neighbors = neighbors[:0:c.neighbors], neighbors[c.neighbors:]
		x.Slot, x.Idx, x.Node = reads[:0:c.reads], reads[c.reads:c.reads:2*c.reads], reads[2*c.reads:2*c.reads:3*c.reads]
		reads = reads[3*c.reads:]
	}

	// Fill.
	for p, s := range subs {
		x := &xs[p]
		for li, u := range s.Nodes {
			if onBorder(s, li) {
				borderIdx[u] = int32(len(x.Border))
				x.Border = append(x.Border, int32(li))
			}
		}
	}
	for p, s := range subs {
		x := &xs[p]
		for i := range slotOf {
			slotOf[i] = -1
		}
		remotes := [2][][]NodeID{s.InRemote, s.OutRemote}
		for li := range s.Nodes {
			for _, side := range remotes[:sides] {
				for _, remote := range side[li] {
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

// CheckIDs returns the sub-graphs' node count n, after the id check
// every run over a sub-graph set makes: ids must be dense, each of
// [0, n) listed by exactly one partition. With every id in range and n
// of them, a repeated id leaves another without an owner.
func CheckIDs(subs []*SubGraph) (int, error) {
	n := 0
	for _, s := range subs {
		n += s.NumNodes()
	}
	seen := make([]uint64, (n+63)/64)
	repeated := false
	for _, s := range subs {
		for _, u := range s.Nodes {
			if u < 0 || int(u) >= n {
				return 0, fmt.Errorf("graph: node id %d outside [0,%d)", u, n)
			}
			w, bit := uint32(u)/64, uint64(1)<<(uint32(u)%64)
			if seen[w]&bit != 0 {
				repeated = true
			}
			seen[w] |= bit
		}
	}
	if repeated {
		for u := 0; ; u++ {
			if seen[u/64]&(1<<(u%64)) == 0 {
				return 0, fmt.Errorf("graph: node ids repeat: node %d has no owner", u)
			}
		}
	}
	return n, nil
}

// ExchangeCheck holds the plans BuildSubGraphs stored on a sub-graph set
// (SubGraph.Exchange) to what BuildExchange(subs, false) returns for the
// sub-graphs as they are now, so that a run may share the plans
// read-only instead of building its own: a builder other than
// BuildSubGraphs, or an edit since, is an error, with BuildExchange's
// texts where it has one. The set passes when CheckSet and every
// partition's Check do; they read the sub-graphs only, so any of them
// may run at the same time as the others.
type ExchangeCheck struct {
	subs []*SubGraph
	n    int // nodes
}

// NewExchangeCheck returns the check of subs' stored plans.
func NewExchangeCheck(subs []*SubGraph) *ExchangeCheck {
	c := &ExchangeCheck{subs: subs}
	for _, s := range subs {
		c.n += s.NumNodes()
	}
	return c
}

// CheckSet checks what spans the set, in O(n + neighbours): the node ids
// (CheckIDs), and that every partition's Neighbors are distinct other
// partitions.
func (c *ExchangeCheck) CheckSet() error {
	if _, err := CheckIDs(c.subs); err != nil {
		return err
	}
	seen := make([]int32, len(c.subs)) // partition -> 1 + the last reader listing it
	for p, s := range c.subs {
		for _, q := range s.Exchange.Neighbors {
			if q < 0 || q >= len(c.subs) || q == p || seen[q] == int32(p+1) {
				return fmt.Errorf("graph: partition %d's exchange plan reads partition %d out of range or twice", p, q)
			}
			seen[q] = int32(p + 1)
		}
	}
	return nil
}

// Check checks partition p's plan, in O(nodes + reads): its Border lists
// exactly its nodes with a cross-partition out-edge, ascending; read r
// stands for the r-th entry of InRemote flattened in node order, names
// the entry's owner by the slot the owner's first read was given, and
// takes the value the owner publishes for it. What a read names of
// another partition's plan is only range-checked here; that partition's
// own Check holds its border to its sub-graph, CheckSet its neighbours.
func (c *ExchangeCheck) Check(p int) error {
	s := c.subs[p]
	x := &s.Exchange
	m := s.NumNodes()
	if len(s.OutRemote) != m || len(s.InRemote) != m {
		return fmt.Errorf("graph: partition %d has %d nodes but %d out-remote and %d in-remote lists", p, m, len(s.OutRemote), len(s.InRemote))
	}
	if len(x.Idx) != len(x.Slot) || len(x.Node) != len(x.Slot) {
		return fmt.Errorf("graph: partition %d's exchange plan holds %d slots, %d indices and %d nodes", p, len(x.Slot), len(x.Idx), len(x.Node))
	}
	// Count the border nodes and reads without a branch a node; with the
	// counts equal, the border need only ascend over border nodes and the
	// reads run in node order, each node's in its InRemote order.
	border, reads := 0, 0
	for li, out := range s.OutRemote {
		border += min(len(out), 1)
		reads += len(s.InRemote[li])
	}
	if border != len(x.Border) {
		return fmt.Errorf("graph: partition %d's exchange plan lists %d border nodes, %d have a cross-partition out-edge", p, len(x.Border), border)
	}
	if reads != len(x.Slot) {
		return fmt.Errorf("graph: partition %d's exchange plan holds %d reads for %d cross in-edges", p, len(x.Slot), reads)
	}
	last := int32(-1)
	for b, li := range x.Border {
		if li <= last || int(li) >= m || len(s.OutRemote[li]) == 0 {
			return fmt.Errorf("graph: partition %d's exchange plan lists local node %d as border entry %d", p, li, b)
		}
		last = li
	}
	var srcs []NodeID // the InRemote list of node last, whose next read is k
	last, k, slots := -1, 0, 0
	for r, li := range x.Node {
		if li != last {
			if k != len(srcs) || li < last || int(li) >= m {
				return fmt.Errorf("graph: partition %d's exchange plan: read %d is not node %d's", p, r, li)
			}
			last, srcs, k = li, s.InRemote[li], 0
		}
		if k == len(srcs) {
			return fmt.Errorf("graph: partition %d's exchange plan: read %d is not node %d's", p, r, li)
		}
		remote := srcs[k]
		k++
		slot := int(x.Slot[r])
		if slot == slots && slot < len(x.Neighbors) {
			slots++
		}
		if slot < 0 || slot >= slots || !c.publishes(x.Neighbors[slot], x.Idx[r], remote) {
			return c.misread(p, r, int(li), remote)
		}
	}
	if k != len(srcs) {
		return fmt.Errorf("graph: partition %d's exchange plan: node %d has %d reads, %d cross in-edges", p, last, k, len(srcs))
	}
	if slots != len(x.Neighbors) {
		return fmt.Errorf("graph: partition %d's exchange plan lists %d neighbours, reads %d", p, len(x.Neighbors), slots)
	}
	return nil
}

// publishes reports whether partition q's border entry bi is node u.
func (c *ExchangeCheck) publishes(q int, bi int32, u NodeID) bool {
	if q < 0 || q >= len(c.subs) {
		return false
	}
	t := c.subs[q]
	if bi < 0 || int(bi) >= len(t.Exchange.Border) {
		return false
	}
	li := t.Exchange.Border[bi]
	return li >= 0 && int(li) < len(t.Nodes) && t.Nodes[li] == u
}

// misread is the error for partition p's read r, of remote into local
// node li, which its plan gets wrong: BuildExchange's when the sub-graphs
// give the read no plan.
func (c *ExchangeCheck) misread(p, r, li int, remote NodeID) error {
	if remote < 0 || int(remote) >= c.n {
		return fmt.Errorf("graph: remote node %d has no owner", remote)
	}
	for q, t := range c.subs {
		if lq := slices.Index(t.Nodes, remote); lq >= 0 && lq < len(t.OutRemote) && len(t.OutRemote[lq]) == 0 {
			return fmt.Errorf("graph: node %d not on partition %d's border", remote, q)
		}
	}
	return fmt.Errorf("graph: partition %d's exchange plan: read %d is not node %d's read of node %d", p, r, c.subs[p].Nodes[li], remote)
}
