package graph

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// small deterministic test graph:
//
//	0 -> 1, 2
//	1 -> 2
//	2 -> 0
//	3 (isolated)
func testGraph() *Graph {
	return &Graph{Out: [][]NodeID{{1, 2}, {2}, {0}, {}}}
}

func TestCounts(t *testing.T) {
	g := testGraph()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

func TestDegrees(t *testing.T) {
	g := testGraph()
	wantOut := []int{2, 1, 1, 0}
	wantIn := []int{1, 1, 2, 0}
	for i, adj := range g.Out {
		if d := len(adj); d != wantOut[i] {
			t.Errorf("out degree[%d] = %d, want %d", i, d, wantOut[i])
		}
	}
	for i, d := range g.InDegrees() {
		if d != wantIn[i] {
			t.Errorf("in degree[%d] = %d, want %d", i, d, wantIn[i])
		}
	}
}

func TestValidate(t *testing.T) {
	g := testGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	bad := &Graph{Out: [][]NodeID{{5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	mismatched := &Graph{Out: [][]NodeID{{0}}, Weights: [][]float64{{1, 2}}}
	if err := mismatched.Validate(); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
}

func TestWeights(t *testing.T) {
	g := testGraph()
	g.AssignUniformWeights(1, 10, 7)
	for u := range g.Out {
		for i := range g.Out[u] {
			w := g.Weights[u][i]
			if w < 1 || w >= 10 {
				t.Fatalf("weight %g out of [1,10)", w)
			}
		}
	}
	// Deterministic per seed.
	h := testGraph()
	h.AssignUniformWeights(1, 10, 7)
	for u := range g.Out {
		for i := range g.Out[u] {
			if g.Weights[u][i] != h.Weights[u][i] {
				t.Fatal("weights not deterministic")
			}
		}
	}
}

func TestBytes(t *testing.T) {
	g := testGraph()
	unweighted := g.TotalBytes()
	g.AssignUniformWeights(1, 2, 1)
	if g.TotalBytes() <= unweighted {
		t.Fatal("weighted graph not larger than unweighted")
	}
}

func TestGenerateProperties(t *testing.T) {
	cfg := GraphAConfig().Scaled(56) // 5000 nodes: fast
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != cfg.Nodes {
		t.Fatalf("nodes %d, want %d", g.NumNodes(), cfg.Nodes)
	}
	// Edge density close to numConn*(1+numIn+numOut), allowing dedup
	// losses.
	perNode := float64(g.NumEdges()) / float64(g.NumNodes())
	expect := float64(cfg.NumConn * (1 + cfg.NumIn + cfg.NumOut))
	if perNode < expect*0.5 || perNode > expect*1.1 {
		t.Fatalf("edges per node %.1f, expected near %.1f", perNode, expect)
	}
	// No self loops or duplicate out-edges.
	for u, adj := range g.Out {
		seen := map[NodeID]bool{}
		for _, v := range adj {
			if int(v) == u {
				t.Fatalf("self loop at %d", u)
			}
			if seen[v] {
				t.Fatalf("duplicate edge %d->%d", u, v)
			}
			seen[v] = true
		}
	}
}

// TestGenerateAdjacencyIsOneCapLimitedArray checks the generator's
// compaction on TestSetupGoldens' three configurations: the Out lists lie
// end to end, in vertex order, in one array of NumEdges entries, each
// filling its capacity exactly, so appending to one reallocates instead of
// running into the next vertex's list; the lists are still the golden
// ones, and survive Write and Read.
func TestGenerateAdjacencyIsOneCapLimitedArray(t *testing.T) {
	for _, c := range generateGoldens {
		g := MustGenerate(c.cfg)
		base := uintptr(unsafe.Pointer(unsafe.SliceData(g.Out[0])))
		lo := 0
		for u, out := range g.Out {
			if len(out) != cap(out) {
				t.Fatalf("%s: node %d: list len %d cap %d", c.name, u, len(out), cap(out))
			}
			if at := uintptr(unsafe.Pointer(unsafe.SliceData(out))); at != base+unsafe.Sizeof(NodeID(0))*uintptr(lo) {
				t.Fatalf("%s: node %d: list does not start at entry %d of node 0's array", c.name, u, lo)
			}
			lo += len(out)
			_ = append(out, -7)
		}
		if lo != g.NumEdges() {
			t.Fatalf("%s: lists cover %d entries, NumEdges %d", c.name, lo, g.NumEdges())
		}
		if got := hashGraph(g); got != c.want {
			t.Errorf("%s: hash %#x after appending to every list, want %#x", c.name, got, c.want)
		}
		read, err := Read(bytes.NewReader(encode(t, g)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hashGraph(read); got != c.want {
			t.Errorf("%s: hash %#x after Write and Read, want %#x", c.name, got, c.want)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := GraphAConfig().Scaled(100)
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for u := range a.Out {
		for i := range a.Out[u] {
			if a.Out[u][i] != b.Out[u][i] {
				t.Fatal("same seed produced different adjacency")
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed++
	c := MustGenerate(cfg2)
	if a.NumEdges() == c.NumEdges() {
		// Edge counts could rarely collide, compare adjacency too.
		same := true
		for u := range a.Out {
			if len(a.Out[u]) != len(c.Out[u]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGenerateHeavyTailed(t *testing.T) {
	g := MustGenerate(GraphAConfig().Scaled(16)) // 17.5K nodes
	fit := stats.FitPowerLaw(g.InDegrees(), 2)
	if !fit.IsHeavyTailed() {
		t.Fatalf("Graph A (scaled) not heavy tailed: %+v", fit)
	}
}

// TestGenerateHeavyTailReachesBack: a locality draw too far back for an
// int clamps to the oldest vertex. A tail exponent this small makes about
// one draw in seven exceed every int; converting such a draw before the
// clamp wrapped it negative, and the edge landed on the nearest vertex.
func TestGenerateHeavyTailReachesBack(t *testing.T) {
	g := MustGenerate(GenerateConfig{Nodes: 20000, NumConn: 1, LocalityBias: 1, LocalityWindow: 50, LocalityAlpha: 0.05, Seed: 7})
	near := 0
	for v := 3; v < g.NumNodes(); v++ {
		for _, u := range g.Out[v] {
			if int(u) == v-1 {
				near++
			}
		}
	}
	if limit := g.NumNodes() / 50; near >= limit {
		t.Fatalf("%d of %d edges land on the joining vertex's predecessor, want under %d", near, g.NumEdges(), limit)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenerateConfig{
		{Nodes: 1, NumConn: 1},
		{Nodes: 10, NumConn: 0},
		{Nodes: 10, NumConn: 1, NumIn: -1},
		{Nodes: 10, NumConn: 1, LocalityBias: 1.5},
		{Nodes: 10, NumConn: 1, LocalityWindow: -2},
		{Nodes: 10, NumConn: 1, LocalityAlpha: -1},
		{Nodes: 10, NumConn: 1, LocalityBias: math.NaN()},
		{Nodes: 10, NumConn: 1, LocalityAlpha: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestIORoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := MustGenerate(GraphAConfig().Scaled(200))
		if weighted {
			g.AssignUniformWeights(1, 10, 3)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: %d/%d vs %d/%d",
				got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		for u := range g.Out {
			for i := range g.Out[u] {
				if got.Out[u][i] != g.Out[u][i] {
					t.Fatal("adjacency corrupted")
				}
				if weighted && got.Weights[u][i] != g.Weights[u][i] {
					t.Fatal("weights corrupted")
				}
			}
		}
	}
}

func TestIORejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}
