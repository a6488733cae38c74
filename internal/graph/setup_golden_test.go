package graph

import (
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// goldenHash feeds lists into one FNV-64a stream, length first, so that
// moving an element between neighbouring lists changes the sum.
type goldenHash struct {
	h   hash.Hash64
	buf [8]byte
}

func newGoldenHash() *goldenHash { return &goldenHash{h: fnv.New64a()} }

func (g *goldenHash) u64(x uint64) {
	for i := range g.buf {
		g.buf[i] = byte(x >> (8 * i))
	}
	g.h.Write(g.buf[:])
}

func (g *goldenHash) ints(a []int32) {
	g.u64(uint64(len(a)))
	for _, x := range a {
		g.u64(uint64(uint32(x)))
	}
}

func (g *goldenHash) floats(a []float64) {
	g.u64(uint64(len(a)))
	for _, x := range a {
		g.u64(math.Float64bits(x))
	}
}

func (g *goldenHash) intLists(a [][]int32) {
	g.u64(uint64(len(a)))
	for _, l := range a {
		g.ints(l)
	}
}

// floatLists hashes nil (unweighted) differently from a table of empty
// lists.
func (g *goldenHash) floatLists(a [][]float64) {
	if a == nil {
		g.u64(math.MaxUint64)
		return
	}
	g.u64(uint64(len(a)))
	for _, l := range a {
		g.floats(l)
	}
}

func (g *goldenHash) sum() uint64 { return g.h.Sum64() }

func hashGraph(g *Graph) uint64 {
	h := newGoldenHash()
	h.intLists(g.Out)
	h.floatLists(g.Weights)
	return h.sum()
}

func hashSubGraphs(subs []*SubGraph) uint64 {
	h := newGoldenHash()
	h.u64(uint64(len(subs)))
	for p, s := range subs {
		h.u64(uint64(p))
		h.ints(s.Nodes)
		h.intLists(s.OutLocal)
		h.intLists(s.OutRemote)
		h.floatLists(s.WLocal)
		h.floatLists(s.WRemote)
		h.ints(s.OutDeg)
		h.intLists(s.InRemote)
		h.floatLists(s.InRemoteW)
		h.u64(uint64(s.Bytes))
	}
	return h.sum()
}

// hashFlatEdgeLists covers the flat edge list, which hashSubGraphs, whose
// sums were committed before it existed, does not: every local edge's
// source, from a walk over OutLocal, then LocalDst.
func hashFlatEdgeLists(subs []*SubGraph) uint64 {
	h := newGoldenHash()
	h.u64(uint64(len(subs)))
	for _, s := range subs {
		h.ints(localSources(s))
		h.ints(s.LocalDst)
	}
	return h.sum()
}

// scatteredParts is a deterministic k-way assignment that keeps most of a
// node's id-range neighbours together and scatters every third node, so
// all three edge classes (local, remote, in-remote) are well populated.
func scatteredParts(n, k int) []int32 {
	parts := make([]int32, n)
	for u := range parts {
		parts[u] = int32((u*k/n + u%3) % k)
	}
	return parts
}

// generateGoldens is TestSetupGoldens' generator rows.
var generateGoldens = []struct {
	name string
	cfg  GenerateConfig
	want uint64
}{
	{"generate/graphA_div8", GraphAConfig().Scaled(8), 0xcab518c21e178293},
	{"generate/graphB_div8", GraphBConfig().Scaled(8), 0x09b52ab2ddaef736},
	{"generate/no_locality", GenerateConfig{Nodes: 20000, NumConn: 3, NumIn: 2, NumOut: 4, Seed: 7}, 0xa1cac68ae5c8cbf7},
}

// TestSetupGoldens pins the generator and the sub-graph builder to the
// sums recorded on the commit before the slab/counted rewrite (PR 13):
// every adjacency list in order, and every field of every SubGraph.
func TestSetupGoldens(t *testing.T) {
	for _, c := range generateGoldens {
		if got := hashGraph(MustGenerate(c.cfg)); got != c.want {
			t.Errorf("%s: hash %#x, want %#x", c.name, got, c.want)
		}
	}

	g := MustGenerate(GraphAConfig().Scaled(8))
	subsCases := []struct {
		name     string
		weighted bool
		k        int
		want     uint64
		wantFlat uint64 // local sources and LocalDst, recorded from a walk over the oracle's OutLocal
	}{
		{"subgraphs/unweighted_k8", false, 8, 0x9411ce9570ea889e, 0x8bfea60a937fe4fc},
		{"subgraphs/unweighted_k16", false, 16, 0xc2741628ffe2cc83, 0xebcca9b1e1d9ae5b},
		{"subgraphs/weighted_k8", true, 8, 0xba41f58f0e35fdc7, 0x8bfea60a937fe4fc},
	}
	for _, c := range subsCases {
		g.Weights = nil
		if c.weighted {
			g.AssignUniformWeights(1, 10, 3)
		}
		subs, err := BuildSubGraphs(g, scatteredParts(g.NumNodes(), c.k), c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hashSubGraphs(subs); got != c.want {
			t.Errorf("%s: hash %#x, want %#x", c.name, got, c.want)
		}
		if got := hashFlatEdgeLists(subs); got != c.wantFlat {
			t.Errorf("%s/flat_edge_list: hash %#x, want %#x", c.name, got, c.wantFlat)
		}
	}
}
