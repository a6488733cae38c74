package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		scale int
		ok    bool
	}{{1, true}, {8, true}, {0, false}, {-2, false}} {
		if err := checkScale(tc.scale); (err == nil) != tc.ok {
			t.Errorf("-scale %d: error %v, want accepted %v", tc.scale, err, tc.ok)
		}
	}
}

func TestWriteGraph(t *testing.T) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(1000))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := writeGraph(path, g); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := graph.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("read back %d nodes and %d edges, wrote %d and %d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if err := writeGraph(filepath.Join(dir, "missing", "g.bin"), g); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
