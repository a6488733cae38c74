//go:build !race

// The race detector allocates on its own, so an allocation count under
// -race measures the detector.

package minprop

import (
	"testing"

	"repro/internal/graph"
)

// zigzag is a path 0 → n-1 → 1 → n-2 → 2 → …: its ids alternate ends, so
// a sweep in node order carries a value a hop or two and a step takes
// many sweeps on either front-end.
func zigzag(n int) *graph.Graph {
	g := &graph.Graph{Out: make([][]graph.NodeID, n)}
	prev := 0
	for i := 1; i < n; i++ {
		u := n - (i+1)/2
		if i%2 == 0 {
			u = i / 2
		}
		g.Out[prev] = append(g.Out[prev], graph.NodeID(u))
		prev = u
	}
	return g
}

// checkStepAllocFree: a warm Step that does not publish allocates nothing;
// its next-frontier buffer is the partition's, reused from sweep to sweep
// and step to step. The whole graph in one partition has no border, so no
// step publishes, and restoring a checkpoint taken before the first step
// makes every run relax the graph from its seeds again, through the same
// many-sweep frontier.
func checkStepAllocFree[T Label](t *testing.T, build func([]*graph.SubGraph, int) (*Workload[T], error)) {
	w, err := build(spread(t, zigzag(64), 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := w.Checkpoint(0)
	var sweeps int64
	step := func() {
		w.Restore(0, ckpt)
		out := w.Step(0, 0, nil)
		if out.Publish {
			t.Fatal("a partition without a border published")
		}
		sweeps = out.LocalIters
	}
	step() // sizes the frontier buffer
	if sweeps < 3 {
		t.Fatalf("the step drained its frontier in %d sweeps; it does not exercise the buffer", sweeps)
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("a warm non-publishing step of %d sweeps allocates %.1f times, want 0", sweeps, allocs)
	}
}

func TestAsyncStepSteadyStateAllocFree(t *testing.T) {
	t.Run("sssp", func(t *testing.T) { checkStepAllocFree(t, distances) })
	t.Run("cc", func(t *testing.T) { checkStepAllocFree(t, labels) })
}
