package pagerank

import (
	"testing"

	"repro/internal/async/asynctest"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

// warmIterationBudget is the allocations a warm global iteration may
// make per map or reduce task of the job it models; the engine, running
// that job, made 2.2 on two cores.
const warmIterationBudget = 8

// checkWarmIterationAllocs pins a formulation's allocation count per
// warm global iteration and holds it equal to the other formulation's on
// the same sub-graphs, at two graph sizes. Every array an iteration
// touches, the eager local iterations' too, is newDriver's, so what is
// left is the task runner's goroutines and closures and the pricing's
// scratch, which depend on neither the formulation nor the graph.
func checkWarmIterationAllocs(t *testing.T, eager bool) {
	var perSize [2]float64
	for i, scale := range []int{140, 35} { // 2000 and 8000 nodes
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
		perSize[i] = allocs
	}
	if perSize[0] != perSize[1] {
		t.Fatalf("a warm iteration allocates %.0f times at 2000 nodes, %.0f at 8000", perSize[0], perSize[1])
	}
}

// warmIterationAllocs measures one formulation's allocations per warm
// global iteration over subs, and the map and reduce tasks of the job it
// models.
func warmIterationAllocs(t *testing.T, subs []*graph.SubGraph, eager bool) (allocs float64, tasks int) {
	d, err := newDriver(engine(), subs, DefaultConfig(), eager)
	if err != nil {
		t.Fatal(err)
	}
	iterate := func() {
		if _, _, err := d.iterate(); err != nil {
			t.Fatal(err)
		}
	}
	iterate()
	allocs = testing.AllocsPerRun(5, iterate)
	return allocs, len(d.maps) + len(d.reduces)
}

func TestEagerSteadyStateAllocs(t *testing.T)   { checkWarmIterationAllocs(t, true) }
func TestGeneralSteadyStateAllocs(t *testing.T) { checkWarmIterationAllocs(t, false) }

// TestGlobalSetupAllocsEqual: newDriver carves every partition's arrays
// from one slab per element type, so a general or eager run's set-up
// allocates as often on Graph A ÷8 in 4, 8 and 64 parts, and the two
// formulations alike.
func TestGlobalSetupAllocsEqual(t *testing.T) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(8))
	var want float64
	for i, k := range []int{4, 8, 64} {
		subs := subgraphs(t, g, k)
		for j, eager := range []bool{false, true} {
			e := engine()
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := newDriver(e, subs, DefaultConfig(), eager); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d parts, eager %v: %.0f allocations", k, eager, allocs)
			if i == 0 && j == 0 {
				want = allocs
			} else if allocs != want {
				t.Errorf("%d parts, eager %v: %.0f allocations, 4 parts general %.0f", k, eager, allocs, want)
			}
		}
	}
}

// TestAsyncSetupAllocsFlat: buildAsyncWorkload carves every partition's
// arrays from one slab per element type, so a run's set-up allocates as
// often on Graph A ÷8 in 4, 16 and 64 parts.
func TestAsyncSetupAllocsFlat(t *testing.T) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(8))
	var want float64
	for i, k := range []int{4, 16, 64} {
		subs := subgraphs(t, g, k)
		c := asynctest.QuietCluster()
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := buildAsyncWorkload(mapreduce.NewEngine(c), subs, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d parts: %.0f allocations", k, allocs)
		if i == 0 {
			want = allocs
		} else if allocs != want {
			t.Errorf("%d parts: %.0f allocations, 4 parts %.0f", k, allocs, want)
		}
	}
}

// BenchmarkAsyncSetup times an asynchronous run's set-up alone, the
// plan checks and the state buildAsyncWorkload builds, on the inputs of
// the benchmark's pagerank_* workloads: Graph A ÷4 in 16 parts.
//
//	go test -run xxx -bench AsyncSetup -count 10 ./internal/pagerank/
func BenchmarkAsyncSetup(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(4))
	a, err := partition.Partition(g, 16, partition.Options{Method: partition.Multilevel, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	c := cluster.New(cluster.EC2LargeCluster())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := buildAsyncWorkload(mapreduce.NewEngine(c), subs, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalIteration times each formulation's set-up (newDriver)
// and one warm global iteration, a run's second, on the inputs of the
// benchmark's modes_pagerank workload: Graph A ÷8 in 8 parts.
//
//	go test -run xxx -bench GlobalIteration -count 10 ./internal/pagerank/
func BenchmarkGlobalIteration(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(8))
	a, err := partition.Partition(g, 8, partition.Options{Method: partition.Multilevel, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	e := mapreduce.NewEngine(cluster.New(cluster.EC2LargeCluster()))
	for _, eager := range []bool{false, true} {
		name := map[bool]string{false: "general", true: "eager"}[eager]
		b.Run(name+"/setup", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := newDriver(e, subs, DefaultConfig(), eager); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/iteration", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := newDriver(e, subs, DefaultConfig(), eager)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := d.iterate(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := d.iterate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
