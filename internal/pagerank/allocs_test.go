package pagerank

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// warmIterationBudget is the allocations a warm global iteration may
// make per map or reduce task; measured 3.0 on two cores (73 per
// iteration whatever the graph's size), and each further core the engine
// puts to work costs a goroutine per phase.
const warmIterationBudget = 8

// checkWarmIterationAllocs pins a formulation's allocation count per
// global iteration once it is warm. From the second iteration on every
// task finds the job's run scratch sized — map-output, shuffle and
// reduce-output buffers, and its own grouper — and an eager map task
// sweeps in its state's working arrays, which newStates allocates once,
// so what is left is per-run and per-task bookkeeping: task contexts,
// counters, stats, the caller's Output copy. A reduce output that grew
// from nil again would add the logarithm of its length to every reduce
// task.
func checkWarmIterationAllocs(t *testing.T, eager bool) {
	for _, scale := range []int{140, 35} { // 2000 and 8000 nodes
		g := graph.MustGenerate(graph.GraphAConfig().Scaled(scale))
		subs := subgraphs(t, g, 8)
		cfg := DefaultConfig()
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		eng := engine()
		states, _, _ := newStates(subs, eager)
		splits := newSplits(eng, states)
		job := buildJob(cfg, eager)
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
		if perTask := allocs / float64(tasks); perTask > warmIterationBudget {
			t.Fatalf("%d nodes: a warm iteration allocates %.1f times per task, budget %d", g.NumNodes(), perTask, warmIterationBudget)
		}
	}
}

func TestEagerSteadyStateAllocs(t *testing.T)   { checkWarmIterationAllocs(t, true) }
func TestGeneralSteadyStateAllocs(t *testing.T) { checkWarmIterationAllocs(t, false) }
