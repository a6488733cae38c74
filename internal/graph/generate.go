package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// GenerateConfig parameterizes the preferential-attachment generator the
// paper describes in §V-B3:
//
//	"Test graphs are generated by adding vertices one at a time —
//	 connecting them to numConn vertices already in the network, chosen
//	 uniformly at random. For each of these numConn vertices, numIn and
//	 numOut of its inlinks and outlinks are chosen uniformly at random
//	 and connected to the joining vertex."
//
// Sampling neighbors of uniformly chosen vertices is degree-biased, so
// high-degree nodes accumulate links — the cumulative-advantage process
// (Price 1976) the paper cites, yielding hubs-and-spokes power-law
// graphs.
type GenerateConfig struct {
	// Nodes is the number of vertices.
	Nodes int
	// NumConn is the count of uniformly chosen existing vertices each
	// joining vertex connects to.
	NumConn int
	// NumIn / NumOut are how many inlinks/outlinks of each chosen vertex
	// get connected to the joining vertex.
	NumIn  int
	NumOut int
	// LocalityBias in [0,1] is the probability that a joining vertex
	// picks its attachment target at a Pareto-distributed distance back
	// in insertion order instead of uniformly over all vertices. This
	// models the crawl-order locality the paper's §V-B3 relies on
	// ("Crawlers inherently induce locality in the graphs as they crawl
	// neighborhoods before crawling remote sites"); 0 recovers the pure
	// Price process.
	LocalityBias float64
	// LocalityWindow is the Pareto scale: the typical attachment
	// distance. Most local edges land within a few windows; the density
	// falls off as distance^-(LocalityAlpha+1), so locality exists at
	// every scale — partitions larger than the window see few cross
	// edges, and partition quotients stay well connected. 0 means
	// max(Nodes/1000, 64).
	LocalityWindow int
	// LocalityAlpha is the Pareto tail exponent; 0 means 2.0. Larger
	// values concentrate edges closer.
	LocalityAlpha float64
	// Seed drives the generator deterministically.
	Seed uint64
}

// Validate reports the first configuration problem.
func (c *GenerateConfig) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("graph: Nodes must be >= 2, got %d", c.Nodes)
	case c.NumConn < 1:
		return fmt.Errorf("graph: NumConn must be >= 1, got %d", c.NumConn)
	case c.NumIn < 0 || c.NumOut < 0:
		return fmt.Errorf("graph: NumIn/NumOut must be >= 0, got %d/%d", c.NumIn, c.NumOut)
	case !(c.LocalityBias >= 0 && c.LocalityBias <= 1):
		return fmt.Errorf("graph: LocalityBias must be in [0,1], got %g", c.LocalityBias)
	case c.LocalityWindow < 0:
		return fmt.Errorf("graph: LocalityWindow must be >= 0, got %d", c.LocalityWindow)
	case !(c.LocalityAlpha >= 0):
		return fmt.Errorf("graph: LocalityAlpha must be >= 0, got %g", c.LocalityAlpha)
	}
	return nil
}

// GraphAConfig reproduces Table II Graph A: 280K nodes, ~3M edges,
// power-law in-degrees. Parameters chosen so the expected edges per
// joining vertex, numConn*(1+numIn+numOut) ≈ 10.7, matches 3M/280K.
func GraphAConfig() GenerateConfig {
	return GenerateConfig{Nodes: 280000, NumConn: 2, NumIn: 3, NumOut: 2,
		LocalityBias: 0.99, LocalityWindow: 50, LocalityAlpha: 3, Seed: 0xA}
}

// GraphBConfig reproduces Table II Graph B: 100K nodes, ~3M edges — the
// same edge count packed into fewer nodes (denser, ~30 edges/node).
// Its weaker crawl locality relative to Graph A reproduces the paper's
// observation that the partial-synchronization trends are "more
// pronounced when the graph follows the power-law distribution more
// closely".
func GraphBConfig() GenerateConfig {
	return GenerateConfig{Nodes: 100000, NumConn: 3, NumIn: 5, NumOut: 5,
		LocalityBias: 0.995, LocalityWindow: 75, LocalityAlpha: 3.5, Seed: 0xB}
}

// Scaled returns a copy of the configuration with the node count scaled
// by 1/f (degree structure preserved). Tests and default-size benches
// use scaled graphs; cmd/asyncmr -paper runs full Table II sizes.
func (c GenerateConfig) Scaled(f int) GenerateConfig {
	if f < 1 {
		f = 1
	}
	c.Nodes /= f
	if c.Nodes < 2 {
		c.Nodes = 2
	}
	return c
}

// Generate builds a directed graph by preferential attachment per the
// paper's procedure. The result has no self-loops and no duplicate edges
// from the same source. Its adjacency is one array of NumEdges entries in
// vertex order, each Out[u] a capacity-limited view of it.
func Generate(cfg GenerateConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	n := cfg.Nodes
	g := &Graph{Out: make([][]NodeID, n)}
	// in[v] tracks in-neighbors to support "numIn of its inlinks";
	// out-neighbors are g.Out.
	in := make([][]NodeID, n)
	// While the graph grows, every list is a capacity-limited view of a
	// fixed-stride slab: a joining vertex expects NumConn*(1+NumIn+NumOut)
	// edges, so a stride of that many entries, rounded up to whole cache
	// lines, holds all but the hubs' lists, which append moves out.
	const line = 64 / 4 // NodeIDs per cache line
	stride := (cfg.NumConn*(1+cfg.NumIn+cfg.NumOut) + line - 1) / line * line
	slab := make([]NodeID, 2*n*stride)
	for u := range g.Out {
		lo, mid, hi := 2*u*stride, (2*u+1)*stride, (2*u+2)*stride
		g.Out[u], in[u] = slab[lo:lo:mid], slab[mid:mid:hi]
	}

	// Vertex v has no edges before its own iteration, and every edge
	// added during it has v at one end, so "already added" is membership
	// in g.Out[v] (for v->x) or in[v] (for x->v): two scans of at most
	// NumConn*(1+NumIn+NumOut) entries.
	addEdge := func(u, v NodeID) {
		g.Out[u] = append(g.Out[u], v)
		in[v] = append(in[v], u)
	}
	linkFrom := func(v, x NodeID) { // v -> x
		if x != v && !slices.Contains(g.Out[v], x) {
			addEdge(v, x)
		}
	}
	linkTo := func(v, x NodeID) { // x -> v
		if x != v && !slices.Contains(in[v], x) {
			addEdge(x, v)
		}
	}

	// Seed the process with an initial 2-cycle so every early draw has a
	// connected target.
	addEdge(0, 1)
	addEdge(1, 0)

	window := cfg.LocalityWindow
	if window == 0 {
		window = n / 1000
		if window < 64 {
			window = 64
		}
	}
	alpha := cfg.LocalityAlpha
	if alpha == 0 {
		alpha = 2.0
	}
	for v := 2; v < n; v++ {
		vid := NodeID(v)
		for c := 0; c < cfg.NumConn; c++ {
			// Uniform over all existing vertices, or — with probability
			// LocalityBias — at a Pareto-distributed distance back in
			// crawl order (density ~ d^-(alpha+1) beyond the window).
			var u NodeID
			if cfg.LocalityBias > 0 && rng.Float64() < cfg.LocalityBias && v > 2 {
				f := rng.Float64()
				for f == 0 {
					f = rng.Float64()
				}
				// Clamp before converting: a heavy tail's draw can exceed
				// every int, and the conversion would wrap it negative.
				d := v - 1 // reach back to the oldest vertex
				if x := float64(window) * math.Pow(f, -1/alpha); x < float64(v) {
					d = max(int(x), 1)
				}
				u = NodeID(v - 1 - rng.Intn(d)) // uniform within the drawn reach
			} else {
				u = NodeID(rng.Intn(v))
			}
			// Joining vertex links to the chosen vertex.
			linkFrom(vid, u)
			// numIn of u's inlinks point to v ("connected to the joining
			// vertex" as new in-edges for v).
			for k := 0; k < cfg.NumIn && len(in[u]) > 0; k++ {
				x := in[u][rng.Intn(len(in[u]))]
				linkTo(vid, x)
			}
			// numOut of u's outlinks become out-edges of v.
			for k := 0; k < cfg.NumOut && len(g.Out[u]) > 0; k++ {
				y := g.Out[u][rng.Intn(len(g.Out[u]))]
				linkFrom(vid, y)
			}
		}
	}

	// Compact: the graph keeps its edges and nothing else of the slab.
	edges := make([]NodeID, g.NumEdges())
	lo := 0
	for u, out := range g.Out {
		hi := lo + copy(edges[lo:], out)
		g.Out[u] = edges[lo:hi:hi]
		lo = hi
	}
	return g, nil
}

// MustGenerate is Generate for static configurations known to be valid;
// it panics on error.
func MustGenerate(cfg GenerateConfig) *Graph {
	g, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g
}
