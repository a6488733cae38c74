// Package partition provides the locality-enhancing graph partitioner the
// paper obtains from Metis ("We partition graphs using Metis. A good
// partitioning algorithm that minimizes edge-cuts has the desired effect
// of reducing global synchronizations", §V-B3).
//
// The primary method, Multilevel, is a from-scratch single-level
// substitute built from Metis's parts: greedy graph growing and
// contiguous id-ranges each give a candidate, Fiduccia–Mattheyses-flavored
// boundary refinement improves both, and the lower cut is kept. Hash,
// range and BFS (growing without refinement) partitioners are included
// as baselines for the ablation benches (partitioner quality → edge-cut
// → eager iteration count and shuffle volume).
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Method selects a partitioning algorithm.
type Method int

const (
	// Multilevel (the default) grows a candidate and takes an id-range
	// one, FM-refines each, and keeps the one with the lower edge cut.
	// The name is kept for callers; the method does not coarsen.
	Multilevel Method = iota
	// BFS grows k regions breadth-first on the original graph — cheap,
	// locality-aware, lower quality than Multilevel.
	BFS
	// Range assigns contiguous node-id blocks; preferential-attachment
	// ids carry temporal locality, making this the "crawler-induced
	// locality" baseline the paper mentions.
	Range
	// Hash assigns nodes round-robin by id — the no-locality strawman.
	Hash
)

// String names the method for reports.
func (m Method) String() string {
	switch m {
	case Multilevel:
		return "multilevel"
	case BFS:
		return "bfs"
	case Range:
		return "range"
	case Hash:
		return "hash"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Assignment maps every node to a partition in [0, K).
type Assignment struct {
	Parts []int32
	K     int
}

// EdgeCut counts directed edges whose endpoints lie in different
// partitions — the quantity Metis minimizes and the driver of global
// synchronization traffic.
func (a *Assignment) EdgeCut(g *graph.Graph) int {
	cut := 0
	for u, adj := range g.Out {
		pu := a.Parts[u]
		for _, v := range adj {
			if a.Parts[v] != pu {
				cut++
			}
		}
	}
	return cut
}

// Sizes returns the node count of each partition.
func (a *Assignment) Sizes() []int {
	s := make([]int, a.K)
	for _, p := range a.Parts {
		s[p]++
	}
	return s
}

// Imbalance returns max partition size over mean partition size; 1.0 is
// perfectly balanced. The paper expects "approximately the same number of
// edges" per partition so local iteration counts stay similar (§V-B2).
func (a *Assignment) Imbalance() float64 {
	sizes := a.Sizes()
	max := 0
	total := 0
	for _, s := range sizes {
		total += s
		if s > max {
			max = s
		}
	}
	if total == 0 || a.K == 0 {
		return 1
	}
	mean := float64(total) / float64(a.K)
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

// Validate checks that every node has a partition in range and that no
// partition is empty (empty partitions waste map slots and break the
// paper's similar-local-work assumption).
func (a *Assignment) Validate(n int) error {
	if len(a.Parts) != n {
		return fmt.Errorf("partition: assignment covers %d of %d nodes", len(a.Parts), n)
	}
	seen := make([]bool, a.K)
	for u, p := range a.Parts {
		if p < 0 || int(p) >= a.K {
			return fmt.Errorf("partition: node %d assigned to %d, want [0,%d)", u, p, a.K)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: partition %d is empty", p)
		}
	}
	return nil
}

// Options tunes the partitioners.
type Options struct {
	// Method selects the algorithm; zero value is Multilevel.
	Method Method
	// Seed drives the one randomized choice: which vertex an empty
	// part takes from the largest (Multilevel and BFS).
	Seed uint64
}

// Partition splits g into k parts with the configured method.
//
// Degenerate sizes follow the paper's limits: k <= 1 puts the whole graph
// in one partition ("the entire graph is given to one global map"); k >=
// NumNodes gives every node its own partition ("Eager PageRank becomes
// General PageRank").
func Partition(g *graph.Graph, k int, opts Options) (*Assignment, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	if k <= 1 {
		return &Assignment{Parts: make([]int32, n), K: 1}, nil
	}
	if k >= n {
		parts := make([]int32, n)
		for i := range parts {
			parts[i] = int32(i)
		}
		return &Assignment{Parts: parts, K: n}, nil
	}
	switch opts.Method {
	case Multilevel:
		return multilevel(g, k, opts.Seed)
	case BFS:
		return bfsGrow(g, k, opts.Seed)
	case Range:
		return rangeParts(n, k), nil
	case Hash:
		return hashParts(n, k), nil
	default:
		return nil, fmt.Errorf("partition: unknown method %v", opts.Method)
	}
}

func rangeParts(n, k int) *Assignment {
	parts := make([]int32, n)
	for i := range parts {
		// Contiguous blocks of ceil/floor size.
		parts[i] = int32(i * k / n)
	}
	return &Assignment{Parts: parts, K: k}
}

func hashParts(n, k int) *Assignment {
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = int32(i % k)
	}
	return &Assignment{Parts: parts, K: k}
}
