//go:build !race

// The race detector makes sync.Pool drop a share of what it is handed,
// so pooled contexts do not stay warm under -race and an allocation
// count there measures the detector, not the runtime.

package pagerank

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// TestEagerSteadyStateAllocs pins the eager formulation's allocation
// count per global iteration once it is warm: from the second iteration
// on, every map task finds a pooled LocalContext with sized slot tables
// and slab, its partition's push plan, and the job's map-output and
// shuffle buffers, so what is left is per-run and per-task bookkeeping
// (task contexts, counters, the caller's Output copy, and each reduce
// task's output growing from empty, which is why the count creeps up with
// the logarithm of the graph's size).
func TestEagerSteadyStateAllocs(t *testing.T) {
	const budget = 16                      // allocations per task; measured 8.4 and 9.8
	for _, scale := range []int{140, 35} { // 2000 and 8000 nodes
		g := graph.MustGenerate(graph.GraphAConfig().Scaled(scale))
		subs := subgraphs(t, g, 8)
		cfg := DefaultConfig()
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		eng := engine()
		states, _, _ := newStates(subs)
		splits := newSplits(eng, states)
		job := buildJob(cfg, true)
		iterate := func() {
			if _, err := mapreduce.Run(eng, job, splits); err != nil {
				t.Fatal(err)
			}
		}
		iterate() // the first global iteration sizes everything
		allocs := testing.AllocsPerRun(5, iterate)
		tasks := len(splits) + job.NumReduces
		t.Logf("%d nodes: %.0f allocs per warm global iteration, %d map + %d reduce tasks (%.1f per task)",
			g.NumNodes(), allocs, len(splits), job.NumReduces, allocs/float64(tasks))
		if perTask := allocs / float64(tasks); perTask > budget {
			t.Fatalf("%d nodes: a warm eager iteration allocates %.1f times per task, budget %d", g.NumNodes(), perTask, budget)
		}
	}
}
