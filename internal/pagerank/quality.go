package pagerank

import (
	"math"

	"repro/internal/graph"
)

// Reference computes PageRank serially with the paper's update rule
// (Jacobi, one push over every edge a sweep) until the infinity norm of a
// sweep's rank change drops below eps, or 10 000 sweeps: the ground truth
// the formulations are measured against.
func Reference(g *graph.Graph, damping, eps float64) []float64 {
	n := g.NumNodes()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1
	}
	contrib := make([]float64, n)
	for iter := 0; iter < 10000; iter++ {
		clear(contrib)
		for u, adj := range g.Out {
			if len(adj) == 0 {
				continue
			}
			c := ranks[u] / float64(len(adj))
			for _, v := range adj {
				contrib[v] += c
			}
		}
		delta := 0.0
		for v := 0; v < n; v++ {
			nr := (1 - damping) + damping*contrib[v]
			if d := math.Abs(nr - ranks[v]); d > delta {
				delta = d
			}
			ranks[v] = nr
		}
		if delta < eps {
			break
		}
	}
	return ranks
}

// CertifiedError bounds how far ranks (by global node id) lie from the
// fixed point x* of the graph the sub-graphs cover, in the 1-norm and so
// in every entry, without knowing x*: it returns ‖r‖₁/(1−d) for the
// residual r = x − ((1−d) + dPx), where P[v][u] is the number of edges
// u→v over outdeg(u). Since x* = (1−d) + dPx*, x − x* = r + dP(x − x*),
// so ‖x − x*‖₁ ≤ ‖r‖₁ + d‖P‖₁‖x − x*‖₁, and ‖P‖₁, the largest column sum,
// is at most 1: a node with out-edges spreads exactly its whole rank, and
// a dangling node's column is 0. That gives ‖x − x*‖₁ ≤ ‖r‖₁/(1−d).
func CertifiedError(ranks []float64, subs []*graph.SubGraph, damping float64) float64 {
	px := make([]float64, len(ranks))
	for _, s := range subs {
		for li, u := range s.Nodes {
			if s.OutDeg[li] == 0 {
				continue
			}
			c := ranks[u] / float64(s.OutDeg[li])
			for _, d := range s.OutLocal[li] {
				px[s.Nodes[d]] += c
			}
			for _, v := range s.OutRemote[li] {
				px[v] += c
			}
		}
	}
	r1 := 0.0
	for u, x := range ranks {
		r1 += math.Abs(x - ((1 - damping) + damping*px[u]))
	}
	return r1 / (1 - damping)
}
