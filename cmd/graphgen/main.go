// Command graphgen generates the paper's Table II input graphs (or
// custom preferential-attachment graphs) and writes them in the
// repository's binary graph format, printing the properties Table II
// reports (nodes, edges, power-law fit).
//
// Usage:
//
//	graphgen -preset a|b [-scale N] [-weights] [-o graph.bin]
//	graphgen -nodes N -numconn C -numin I -numout O [-o graph.bin]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/graph"
	"repro/internal/stats"
)

func main() {
	preset := flag.String("preset", "", `"a" or "b" for the Table II graphs`)
	scale := flag.Int("scale", 1, "divide preset node count by N")
	nodes := flag.Int("nodes", 10000, "custom: node count")
	numConn := flag.Int("numconn", 2, "custom: uniformly chosen attachments per joining vertex")
	numIn := flag.Int("numin", 3, "custom: inlinks adopted per chosen vertex")
	numOut := flag.Int("numout", 2, "custom: outlinks adopted per chosen vertex")
	seed := flag.Uint64("seed", 1, "generator seed")
	weights := flag.Bool("weights", false, "assign uniform [1,100) edge weights (for SSSP)")
	out := flag.String("o", "", "output file (binary graph format); omit to only print properties")
	flag.Parse()

	if err := checkScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(2)
	}

	var cfg graph.GenerateConfig
	switch *preset {
	case "a":
		cfg = graph.GraphAConfig().Scaled(*scale)
	case "b":
		cfg = graph.GraphBConfig().Scaled(*scale)
	case "":
		cfg = graph.GenerateConfig{
			Nodes: *nodes, NumConn: *numConn, NumIn: *numIn, NumOut: *numOut,
			LocalityBias: 0.99, LocalityAlpha: 3, Seed: *seed,
		}
	default:
		log.Fatalf("graphgen: unknown preset %q", *preset)
	}

	g, err := graph.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *weights {
		g.AssignUniformWeights(1, 100, *seed+1)
	}
	fit := stats.FitPowerLaw(g.InDegrees(), 2)
	fmt.Printf("nodes:               %d\n", g.NumNodes())
	fmt.Printf("edges:               %d\n", g.NumEdges())
	fmt.Printf("bytes (serialized):  %d\n", g.TotalBytes())
	fmt.Printf("power-law exponent:  %.2f (log-log fit R2 %.2f)\n", fit.Alpha, fit.R2)
	fmt.Printf("heavy-tailed:        %v\n", fit.IsHeavyTailed())

	if *out != "" {
		if err := writeGraph(*out, g); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// checkScale refuses a -scale below 1, which the presets' Scaled reads
// as paper-size inputs.
func checkScale(scale int) error {
	if scale < 1 {
		return fmt.Errorf("-scale %d: the divisor is 1 (paper-size inputs) or more", scale)
	}
	return nil
}

// writeGraph writes g to path in the binary graph format. It returns
// Close's error too: a failed close can mean the data never reached the
// file.
func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
