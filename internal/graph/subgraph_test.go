package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
)

// buildSubGraphsOracle is BuildSubGraphs as it stood before the
// count/carve/fill rewrite: lists grown by append, global->local lookup
// through one map per partition. Tests compare the production builder
// against it; it is not a second production path.
func buildSubGraphsOracle(g *Graph, parts []int32, k int) ([]*SubGraph, error) {
	n := g.NumNodes()
	if len(parts) != n {
		return nil, fmt.Errorf("graph: parts length %d != nodes %d", len(parts), n)
	}
	weighted := g.Weights != nil
	subs := make([]*SubGraph, k)
	index := make([]map[NodeID]int32, k)
	for p := range subs {
		subs[p] = &SubGraph{}
		index[p] = make(map[NodeID]int32)
	}
	for u := 0; u < n; u++ {
		p := parts[u]
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("graph: node %d assigned to invalid partition %d", u, p)
		}
		s := subs[p]
		index[p][NodeID(u)] = int32(len(s.Nodes))
		s.Nodes = append(s.Nodes, NodeID(u))
	}
	for p, s := range subs {
		if len(s.Nodes) == 0 {
			return nil, fmt.Errorf("graph: partition %d is empty", p)
		}
		m := len(s.Nodes)
		s.OutLocal = make([][]int32, m)
		s.OutRemote = make([][]NodeID, m)
		s.OutDeg = make([]int32, m)
		s.InRemote = make([][]NodeID, m)
		if weighted {
			s.WLocal = make([][]float64, m)
			s.WRemote = make([][]float64, m)
			s.InRemoteW = make([][]float64, m)
		}
	}
	for u := 0; u < n; u++ {
		pu := parts[u]
		s := subs[pu]
		ui := index[pu][NodeID(u)]
		adj := g.Out[u]
		s.OutDeg[ui] = int32(len(adj))
		for ei, v := range adj {
			var w float64
			if weighted {
				w = g.Weights[u][ei]
			}
			if pv := parts[v]; pv == pu {
				s.OutLocal[ui] = append(s.OutLocal[ui], index[pu][v])
				if weighted {
					s.WLocal[ui] = append(s.WLocal[ui], w)
				}
			} else {
				s.OutRemote[ui] = append(s.OutRemote[ui], v)
				if weighted {
					s.WRemote[ui] = append(s.WRemote[ui], w)
				}
				t := subs[pv]
				vi := index[pv][v]
				t.InRemote[vi] = append(t.InRemote[vi], NodeID(u))
				if weighted {
					t.InRemoteW[vi] = append(t.InRemoteW[vi], w)
				}
			}
		}
	}
	for _, s := range subs {
		var b int64
		for _, u := range s.Nodes {
			b += g.AdjacencyBytes(int(u))
		}
		s.Bytes = b
	}
	return subs, nil
}

func diffLists[T comparable](field string, got, want [][]T) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%s: table nil/len %v/%d, want %v/%d", field, got == nil, len(got), want == nil, len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) { // an empty list may be nil on one side
			return fmt.Sprintf("%s[%d] = %v, want %v", field, i, got[i], want[i])
		}
	}
	return ""
}

// diffSubGraphs names the first field in which got departs from want, or
// returns "".
func diffSubGraphs(got, want []*SubGraph) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d sub-graphs, want %d", len(got), len(want))
	}
	for p, w := range want {
		s := got[p]
		var d string
		switch {
		case !slices.Equal(s.Nodes, w.Nodes):
			d = fmt.Sprintf("Nodes = %v, want %v", s.Nodes, w.Nodes)
		case !slices.Equal(s.OutDeg, w.OutDeg):
			d = fmt.Sprintf("OutDeg = %v, want %v", s.OutDeg, w.OutDeg)
		case s.Bytes != w.Bytes:
			d = fmt.Sprintf("Bytes = %d, want %d", s.Bytes, w.Bytes)
		default:
			for _, f := range []string{
				diffLists("OutLocal", s.OutLocal, w.OutLocal),
				diffLists("OutRemote", s.OutRemote, w.OutRemote),
				diffLists("InRemote", s.InRemote, w.InRemote),
				diffLists("WLocal", s.WLocal, w.WLocal),
				diffLists("WRemote", s.WRemote, w.WRemote),
				diffLists("InRemoteW", s.InRemoteW, w.InRemoteW),
			} {
				if f != "" {
					d = f
					break
				}
			}
		}
		if d != "" {
			return fmt.Sprintf("partition %d: %s", p, d)
		}
	}
	return ""
}

// checkAgainstOracle builds the sub-graphs both ways and reports any
// difference, including in which inputs are rejected.
func checkAgainstOracle(t *testing.T, g *Graph, parts []int32, k int) []*SubGraph {
	t.Helper()
	got, err := BuildSubGraphs(g, parts, k)
	want, wantErr := buildSubGraphsOracle(g, parts, k)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("error %v, oracle %v", err, wantErr)
	}
	if d := diffSubGraphs(got, want); d != "" {
		t.Fatalf("n=%d k=%d parts=%v out=%v: %s", g.NumNodes(), k, parts, g.Out, d)
	}
	for p, s := range got {
		for _, check := range []func(*SubGraph) string{checkFlatEdgeList, checkPullPlan} {
			if d := check(s); d != "" {
				t.Fatalf("n=%d k=%d parts=%v out=%v: partition %d: %s", g.NumNodes(), k, parts, g.Out, p, d)
			}
		}
	}
	return got
}

// localSources lists the source of every local edge in OutLocal's
// traversal order: entry k is the node whose list holds LocalDst[k].
func localSources(s *SubGraph) []int32 {
	var src []int32
	for i, adj := range s.OutLocal {
		for range adj {
			src = append(src, int32(i))
		}
	}
	return src
}

// checkFlatEdgeList holds a sub-graph's LocalDst to its contract against
// OutLocal (which the oracle comparison has checked): it is the
// concatenation of the OutLocal lists and shares their memory.
func checkFlatEdgeList(s *SubGraph) string {
	k := 0
	for i, adj := range s.OutLocal {
		for e, dst := range adj {
			switch {
			case k >= len(s.LocalDst):
				return fmt.Sprintf("flat list holds %d destinations, OutLocal more", len(s.LocalDst))
			case s.LocalDst[k] != dst:
				return fmt.Sprintf("edge %d ends at %d, OutLocal[%d][%d] says %d", k, s.LocalDst[k], i, e, dst)
			case &s.LocalDst[k] != &adj[e]:
				return fmt.Sprintf("LocalDst[%d] is a copy of OutLocal[%d][%d], not the same slab entry", k, i, e)
			}
			k++
		}
	}
	if len(s.LocalDst) != k {
		return fmt.Sprintf("flat list holds %d destinations, OutLocal %d edges", len(s.LocalDst), k)
	}
	return ""
}

// checkPullPlan holds a sub-graph's pull plan to its contract against the
// flat edge list (which checkFlatEdgeList has checked): positions are a
// permutation of the nodes sorted by local in-degree, ties by local index;
// every node's row, read in order and taken back to local indices, is the
// flat list's sources filtered by that destination; a slice is as long as
// its longest row, pads sit only at row tails and fill the extra
// positions' rows; OutDeg follows the positions.
func checkPullPlan(s *SubGraph) string {
	pl := &s.Pull
	n := s.NumNodes()
	if err := pl.Check(n, len(s.LocalDst)); err != nil {
		return err.Error()
	}
	in := make([][]int32, n) // the model: sources by destination, in list order
	for i, adj := range s.OutLocal {
		for _, d := range adj {
			in[d] = append(in[d], int32(i))
		}
	}
	pad := int32(len(pl.OutDeg))
	order := make([]int32, pad) // position -> local index, -1 at the extra ones
	for r := range order {
		order[r] = -1
	}
	for i, r := range pl.Pos {
		if order[r] >= 0 {
			return fmt.Sprintf("nodes %d and %d share position %d", order[r], i, r)
		}
		order[r] = int32(i)
	}
	for r := 1; r < n; r++ {
		a, b := order[r-1], order[r]
		if len(in[a]) > len(in[b]) || len(in[a]) == len(in[b]) && a > b {
			return fmt.Sprintf("position %d holds node %d (in-degree %d) before node %d (in-degree %d)", r-1, a, len(in[a]), b, len(in[b]))
		}
	}
	for r, i := range order {
		want, wantDeg := []int32(nil), 1.0
		if i >= 0 {
			want, wantDeg = in[i], float64(s.OutDeg[i])
		}
		if pl.OutDeg[r] != wantDeg {
			return fmt.Sprintf("position %d (node %d): out-degree %g, want %g", r, i, pl.OutDeg[r], wantDeg)
		}
		sl := r / PullRows
		var row []int32
		for _, q := range pl.Src[pl.Start[sl]:pl.Start[sl+1]] {
			row = append(row, [PullRows]int32{q.R0, q.R1, q.R2, q.R3}[r%PullRows])
		}
		var got []int32
		for j, p := range row {
			switch {
			case p == pad && j < len(want):
				return fmt.Sprintf("position %d (node %d): a pad at entry %d of a row of %d", r, i, j, len(want))
			case p != pad && j >= len(want):
				return fmt.Sprintf("position %d (node %d): entry %d names position %d past the row's %d in-edges", r, i, j, p, len(want))
			case p != pad:
				got = append(got, order[p])
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("position %d (node %d): row reads sources %v, the flat list filtered by it %v", r, i, got, want)
		}
		if last := min(sl*PullRows+PullRows, n) - 1; r == last && len(row) != len(want) {
			return fmt.Sprintf("slice %d holds %d entries, its longest row %d", sl, len(row), len(want))
		}
	}
	return ""
}

// messyGraph draws a small graph with everything the generator never
// emits: self-loops, duplicate edges and isolated nodes. Weights, when
// asked for, are distinct per edge so a misplaced one shows.
func messyGraph(rng *stats.RNG, n int, weighted bool) *Graph {
	g := &Graph{Out: make([][]NodeID, n)}
	for e := rng.Intn(4 * n); e > 0; e-- {
		u := rng.Intn(n)
		v := NodeID(rng.Intn(n))
		g.Out[u] = append(g.Out[u], v)
		if rng.Intn(4) == 0 {
			g.Out[u] = append(g.Out[u], v) // duplicate
		}
	}
	if weighted {
		distinctWeights(g)
	}
	return g
}

func distinctWeights(g *Graph) {
	g.Weights = make([][]float64, len(g.Out))
	x := 0.5
	for u, adj := range g.Out {
		g.Weights[u] = make([]float64, len(adj))
		for i := range adj {
			g.Weights[u][i] = x
			x++
		}
	}
}

// coveringParts assigns nodes to k <= n partitions at random while keeping
// every partition non-empty (node p goes to partition p for p < k).
func coveringParts(n, k int, pick func() int) []int32 {
	parts := make([]int32, n)
	for u := range parts {
		if u < k {
			parts[u] = int32(u)
		} else {
			parts[u] = int32(pick() % k)
		}
	}
	return parts
}

func TestBuildSubGraphsMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(13)
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(40)
		g := messyGraph(rng, n, i%2 == 1)
		k := 1 + rng.Intn(n)
		if i%10 == 0 {
			k = n // every partition a single node
		}
		checkAgainstOracle(t, g, coveringParts(n, k, func() int { return rng.Intn(k) }), k)
	}
	// The generator's own output, under an assignment that populates all
	// three edge classes.
	g := MustGenerate(GraphAConfig().Scaled(100))
	checkAgainstOracle(t, g, scatteredParts(g.NumNodes(), 7), 7)
	g.AssignUniformWeights(1, 10, 3)
	checkAgainstOracle(t, g, scatteredParts(g.NumNodes(), 7), 7)
}

func TestBuildSubGraphsRejectsLikeOracle(t *testing.T) {
	g := testGraph()
	for _, c := range []struct {
		parts []int32
		k     int
	}{
		{[]int32{0, 0, 0}, 1},     // short assignment
		{[]int32{0, 2, 0, 1}, 2},  // partition out of range
		{[]int32{0, -1, 0, 1}, 2}, // negative partition
		{[]int32{0, 0, 2, 2}, 3},  // partition 1 empty
		{[]int32{0, 0, 0, 0}, 0},  // no partitions at all
	} {
		if _, err := BuildSubGraphs(g, c.parts, c.k); err == nil {
			t.Fatalf("parts %v k=%d accepted", c.parts, c.k)
		}
		checkAgainstOracle(t, g, c.parts, c.k)
	}
}

// TestSubGraphViewsAreCapLimited checks the carve: every per-node list,
// and the flat edge list, fills its capacity exactly, so appending to one
// reallocates and leaves the neighbouring node's list, which follows it
// in the slab, untouched.
func TestSubGraphViewsAreCapLimited(t *testing.T) {
	g := MustGenerate(GraphAConfig().Scaled(200))
	g.AssignUniformWeights(1, 10, 3)
	subs, err := BuildSubGraphs(g, scatteredParts(g.NumNodes(), 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	sums := func() [2]uint64 { return [2]uint64{hashSubGraphs(subs), hashFlatEdgeLists(subs)} }
	before := sums()
	for p, s := range subs {
		for i := range s.Nodes {
			for _, l := range [][]int32{s.OutLocal[i], s.OutRemote[i], s.InRemote[i]} {
				if len(l) != cap(l) {
					t.Fatalf("partition %d node %d: list len %d cap %d", p, i, len(l), cap(l))
				}
				_ = append(l, -7)
			}
			for _, l := range [][]float64{s.WLocal[i], s.WRemote[i], s.InRemoteW[i]} {
				if len(l) != cap(l) {
					t.Fatalf("partition %d node %d: weight list len %d cap %d", p, i, len(l), cap(l))
				}
				_ = append(l, -7)
			}
		}
		if l := s.LocalDst; len(l) != cap(l) {
			t.Fatalf("partition %d: flat edge list len %d cap %d", p, len(l), cap(l))
		}
		_ = append(s.LocalDst, -7)
	}
	if sums() != before {
		t.Fatal("appending to a view overwrote another view")
	}
}

// FuzzBuildSubGraphs decodes a small graph and a covering assignment from
// the input and runs the oracle comparison (with it the flat edge list's
// and the pull plan's checks), then the exchange-plan builder's on the
// sub-graphs (exchange_test.go): byte 0 the node count, byte 1 the
// partition count, byte 2 weighted or not, then one assignment byte per
// node past the first k, then edges as (source, destination) byte pairs.
// The corpus's pull-* entries are the shapes the plan pads for: node
// counts one, two and three past a multiple of four, a one-node partition,
// a partition without a local edge, rows without an in-edge beside a hub
// wider than all other rows together.
func FuzzBuildSubGraphs(f *testing.F) {
	f.Add([]byte{4, 2, 0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 0, 3, 3})
	f.Add([]byte{3, 3, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 2})
	f.Add([]byte{9, 1, 1, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%48
		k := 1 + int(data[1])%n
		weighted := data[2]&1 == 1
		data = data[3:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		parts := coveringParts(n, k, next)
		g := &Graph{Out: make([][]NodeID, n)}
		for len(data) >= 2 {
			u := next() % n
			g.Out[u] = append(g.Out[u], NodeID(next()%n))
		}
		if weighted {
			distinctWeights(g)
		}
		checkExchangeAgainstOracle(t, checkAgainstOracle(t, g, parts, k))
	})
}
