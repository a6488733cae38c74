//go:build !race

// The race detector allocates on its own, so an allocation count under
// -race measures the detector.

package sssp

import (
	"testing"

	"repro/internal/graph"
)

// TestAsyncStepSteadyStateAllocFree: a warm Step that does not publish
// allocates nothing; its next-frontier buffer is the partition's, reused
// from sweep to sweep and step to step. The whole graph in one partition
// has no border, so no step publishes, and restoring a checkpoint taken
// before the first step makes every run relax the graph from the source
// again, through the same many-sweep frontier.
func TestAsyncStepSteadyStateAllocFree(t *testing.T) {
	g := smallGraph()
	subs, err := graph.BuildSubGraphs(g, make([]int32, g.NumNodes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildAsyncWorkload(subs, Config{Source: 0})
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
