package pagerank

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// warmIterationBudget is the allocations a warm global iteration may
// make per map or reduce task; measured 2.2 on two cores (52 per
// iteration whatever the graph's size), and each further core the engine
// puts to work costs a goroutine per phase.
const warmIterationBudget = 8

// checkWarmIterationAllocs pins a formulation's allocation count per
// global iteration once it is warm, and holds it equal to the other
// formulation's on the same sub-graphs. From the second iteration on
// every task finds the job's run scratch sized — map-output, shuffle and
// reduce-output buffers, and its own grouper — and an eager map task
// sweeps in its state's working arrays, which newStates allocates once,
// so what is left is per-run and per-task bookkeeping the engine makes
// alike for both: task contexts, stats, goroutines, the caller's Output
// copy. A reduce output that grew from nil again would add the
// logarithm of its length to every reduce task.
func checkWarmIterationAllocs(t *testing.T, eager bool) {
	for _, scale := range []int{140, 35} { // 2000 and 8000 nodes
		g := graph.MustGenerate(graph.GraphAConfig().Scaled(scale))
		subs := subgraphs(t, g, 8)
		allocs, tasks := warmIterationAllocs(t, subs, eager)
		other, _ := warmIterationAllocs(t, subs, !eager)
		t.Logf("%d nodes: %.0f allocs per warm global iteration (%.0f in the other formulation), %d tasks (%.1f per task)",
			g.NumNodes(), allocs, other, tasks, allocs/float64(tasks))
		if perTask := allocs / float64(tasks); perTask > warmIterationBudget {
			t.Fatalf("%d nodes: a warm iteration allocates %.1f times per task, budget %d", g.NumNodes(), perTask, warmIterationBudget)
		}
		if allocs != other {
			t.Fatalf("%d nodes: a warm iteration allocates %.0f times with eager %v, %.0f times with eager %v", g.NumNodes(), allocs, eager, other, !eager)
		}
	}
}

// warmIterationAllocs measures one formulation's allocations per warm
// global iteration over subs, and the map and reduce tasks it runs.
func warmIterationAllocs(t *testing.T, subs []*graph.SubGraph, eager bool) (allocs float64, tasks int) {
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	eng := engine()
	states, _, _ := newStates(subs, eager)
	splits := newSplits(states)
	job := buildJob(cfg, eager)
	var res *mapreduce.Result[int64, float64]
	iterate := func() {
		var err error
		if res, err = mapreduce.Run(eng, job, splits); err != nil {
			t.Fatal(err)
		}
	}
	iterate() // the first global iteration sizes everything
	allocs = testing.AllocsPerRun(5, iterate)
	return allocs, res.MapTasks + res.ReduceTasks
}

func TestEagerSteadyStateAllocs(t *testing.T)   { checkWarmIterationAllocs(t, true) }
func TestGeneralSteadyStateAllocs(t *testing.T) { checkWarmIterationAllocs(t, false) }

// TestNewStatesAllocsPerPartition: newStates sizes every array from
// counts, so it makes as many allocations per partition at 8 000 nodes as
// at 2 000, in either formulation. A key list grown by append would add
// about the logarithm of its length to every partition.
func TestNewStatesAllocsPerPartition(t *testing.T) {
	for _, eager := range []bool{false, true} {
		var per [2]float64
		for i, scale := range []int{140, 35} { // 2000 and 8000 nodes
			subs := subgraphs(t, graph.MustGenerate(graph.GraphAConfig().Scaled(scale)), 8)
			per[i] = testing.AllocsPerRun(3, func() { newStates(subs, eager) }) / float64(len(subs))
		}
		t.Logf("eager %v: %.3f allocations per partition at 2000 and %.3f at 8000 nodes", eager, per[0], per[1])
		if per[0] != per[1] {
			t.Errorf("eager %v: %.3f allocations per partition at 2000 nodes, %.3f at 8000", eager, per[0], per[1])
		}
	}
}
