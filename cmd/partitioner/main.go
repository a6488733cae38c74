// Command partitioner partitions a graph (from a file written by
// graphgen, or a freshly generated Table II preset) with each available
// method and prints edge-cut and balance statistics — the quantities
// that determine how well the paper's partial synchronization works.
//
// Usage:
//
//	partitioner -preset a -k 100,400,1600
//	partitioner -in graph.bin -k 64 -method multilevel
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
)

func main() {
	in := flag.String("in", "", "input graph file (binary format from graphgen)")
	preset := flag.String("preset", "", `"a" or "b" to generate a Table II graph instead`)
	scale := flag.Int("scale", 8, "preset scale divisor")
	ks := flag.String("k", "100,400,1600", "comma-separated partition counts")
	method := flag.String("method", "", "one method (multilevel|bfs|range|hash); empty = all")
	seed := flag.Uint64("seed", 7, "partitioner seed")
	flag.Parse()

	counts, err := parseKs(*ks)
	if err == nil {
		err = checkScale(*scale)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "partitioner: %v\n", err)
		os.Exit(2)
	}

	g := loadGraph(*in, *preset, *scale)
	if err := checkKs(counts, g.NumNodes()); err != nil {
		fmt.Fprintf(os.Stderr, "partitioner: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	methods := []partition.Method{partition.Multilevel, partition.BFS, partition.Range, partition.Hash}
	if *method != "" {
		m, err := parseMethod(*method)
		if err != nil {
			log.Fatal(err)
		}
		methods = []partition.Method{m}
	}

	fmt.Printf("%-8s %-12s %12s %10s %10s %12s\n", "k", "method", "edge cut", "cut %", "imbalance", "wall time")
	for _, k := range counts {
		for _, m := range methods {
			t0 := time.Now()
			a, err := partition.Partition(g, k, partition.Options{Method: m, Seed: *seed})
			if err != nil {
				log.Fatal(err)
			}
			if err := a.Validate(g.NumNodes()); err != nil {
				log.Fatalf("partitioner: %v produced invalid assignment: %v", m, err)
			}
			cut := a.EdgeCut(g)
			fmt.Printf("%-8d %-12s %12d %9.1f%% %10.2f %12v\n",
				k, m, cut, 100*float64(cut)/float64(g.NumEdges()),
				a.Imbalance(), time.Since(t0).Round(time.Millisecond))
		}
	}
}

// parseKs reads -k's comma-separated partition counts. A count below 1
// is refused: partition.Partition reads it as one partition, and the
// table would print rows for a k it did not use.
func parseKs(s string) ([]int, error) {
	var ks []int
	for _, field := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("-k: bad count %q: %v", field, err)
		}
		if k < 1 {
			return nil, fmt.Errorf("-k: count %d: a partition count is 1 or more", k)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// checkKs refuses a count above the graph's node count:
// partition.Partition gives such a graph one partition a node, and the
// table would print rows for a k it did not use.
func checkKs(ks []int, nodes int) error {
	for _, k := range ks {
		if k > nodes {
			return fmt.Errorf("-k: count %d is above the graph's %d nodes", k, nodes)
		}
	}
	return nil
}

// checkScale refuses a -scale below 1, which the presets' Scaled reads
// as paper-size inputs.
func checkScale(scale int) error {
	if scale < 1 {
		return fmt.Errorf("-scale %d: the divisor is 1 (paper-size inputs) or more", scale)
	}
	return nil
}

func loadGraph(in, preset string, scale int) *graph.Graph {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		g, err := graph.Read(f)
		if err != nil {
			log.Fatal(err)
		}
		return g
	case preset == "a":
		return graph.MustGenerate(graph.GraphAConfig().Scaled(scale))
	case preset == "b":
		return graph.MustGenerate(graph.GraphBConfig().Scaled(scale))
	default:
		log.Fatal("partitioner: need -in FILE or -preset a|b")
		return nil
	}
}

func parseMethod(s string) (partition.Method, error) {
	switch s {
	case "multilevel":
		return partition.Multilevel, nil
	case "bfs":
		return partition.BFS, nil
	case "range":
		return partition.Range, nil
	case "hash":
		return partition.Hash, nil
	default:
		return 0, fmt.Errorf("partitioner: unknown method %q", s)
	}
}
