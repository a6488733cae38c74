// Benchmarks over the experiment registry and the workload table, the
// ablations for the design choices DESIGN.md calls out, and the
// per-layer rungs that wait to be folded into bench/ (ROADMAP item 10(a)).
// bench/ is the instrument of record for performance claims
// (BENCHMARK.json); these exist to regenerate every experiment at a
// reduced scale under `go test -bench` (the shapes survive scaling; see
// EXPERIMENTS.md) and to profile a layer with nothing around it. The
// allocation budgets CI enforces live in alloc_budget_test.go.
//
// Run the full paper-size experiments with cmd/asyncmr -scale 1 instead.
package main

import (
	"fmt"
	"io"
	"strconv"
	"testing"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/kmeans"
	"repro/internal/mapreduce"
	"repro/internal/pagerank"
	"repro/internal/partition"
	"repro/internal/simtime"
)

// benchScale shrinks workloads so a full figure regenerates in seconds.
const benchScale = 16

// BenchmarkExperiments regenerates every entry of the experiment
// registry — the paper's tables and figures, the async-mode figures and
// `run` (in general mode) — one sub-benchmark per entry, and reports the
// headline of each figure whose first two series are comparable: the
// geometric-mean general/eager ratio the paper quotes.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments() {
		b.Run(e.Names[0], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				figs, err := e.Run(harness.NewSuite(benchScale), "general", io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				for j, f := range figs {
					if geo, _ := f.SpeedupSummary(); f.Comparable {
						b.ReportMetric(geo, "general/eager-"+strconv.Itoa(j))
					}
				}
			}
		})
	}
}

// BenchmarkWorkloads times what bench/ does not: every row of the
// workload table but PageRank (pagerank_des, _parallel, _live and
// modes_pagerank are bench/ workloads), eager and on each async
// executor, on the row's own end-to-end inputs.
func BenchmarkWorkloads(b *testing.B) {
	s := harness.NewSuite(benchScale)
	for _, w := range harness.Workloads {
		if w == harness.PageRank {
			continue
		}
		in, err := w.Inputs(s)
		if err != nil {
			b.Fatal(err)
		}
		report := func(b *testing.B, r harness.Run, err error) {
			if err != nil {
				b.Fatal(err)
			}
			if !r.Converged {
				b.Fatal("did not converge")
			}
			b.ReportMetric(r.SimSeconds, "sim-seconds")
			b.ReportMetric(r.Iterations, "iterations")
		}
		if w.HasSync() {
			b.Run(w.Name+"/eager", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := w.Sync(cluster.EC2LargeCluster(), in, true)
					report(b, r, err)
				}
			})
		}
		for _, ex := range []async.Executor{async.DES, async.Parallel, async.Live} {
			b.Run(w.Name+"/"+ex.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := w.Async(cluster.EC2LargeCluster(), in, async.Options{Staleness: harness.DefaultStaleness, Executor: ex})
					report(b, r, err)
				}
			})
		}
	}
}

// --- Ablations (DESIGN.md §4) --------------------------------------------

// fixture shared by the ablation benches and the allocation budgets.
type prFixture struct {
	g    *graph.Graph
	subs map[string][]*graph.SubGraph
}

func buildPRFixture(b testing.TB, scale int, methods []partition.Method, k int) *prFixture {
	b.Helper()
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(scale))
	f := &prFixture{g: g, subs: map[string][]*graph.SubGraph{}}
	for _, m := range methods {
		a, err := partition.Partition(g, k, partition.Options{Method: m, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
		if err != nil {
			b.Fatal(err)
		}
		f.subs[m.String()] = subs
	}
	return f
}

func ec2Engine() *mapreduce.Engine {
	return mapreduce.NewEngine(cluster.New(cluster.EC2LargeCluster()))
}

// BenchmarkAblationPartitioner measures how partitioner quality (edge
// cut) drives the eager formulation's iteration count and simulated time
// (locality-enhancing partitioning is load-bearing: §V-B3).
func BenchmarkAblationPartitioner(b *testing.B) {
	methods := []partition.Method{partition.Multilevel, partition.Hash}
	k := 200 / benchScale * 4
	f := buildPRFixture(b, benchScale, methods, k)
	for _, m := range methods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pagerank.Run(ec2Engine(), f.subs[m.String()], pagerank.DefaultConfig(), true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.GlobalIterations), "iters-eager")
				b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-eager")
			}
		})
	}
}

// BenchmarkAblationLocalIterations sweeps the local iteration cap:
// 1 local sweep degenerates toward the general formulation; unbounded
// local convergence is the paper's eager scheduling.
func BenchmarkAblationLocalIterations(b *testing.B) {
	f := buildPRFixture(b, benchScale, []partition.Method{partition.Multilevel}, 8)
	for _, cap := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("cap=%d", cap)
		if cap == 0 {
			name = "cap=convergence"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := pagerank.DefaultConfig()
				cfg.MaxLocalIters = cap
				res, err := pagerank.Run(ec2Engine(), f.subs["multilevel"], cfg, true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.GlobalIterations), "iters-eager")
				b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-eager")
			}
		})
	}
}

// BenchmarkAblationNetwork reproduces the §II claim that partial
// synchronization gains are amplified on cloud networks relative to HPC
// interconnects: the same workload on both cluster models.
func BenchmarkAblationNetwork(b *testing.B) {
	f := buildPRFixture(b, benchScale, []partition.Method{partition.Multilevel}, 8)
	for _, tc := range []struct {
		name string
		cfg  *cluster.Config
	}{
		{"cloud-ec2", cluster.EC2LargeCluster()},
		{"hpc", cluster.HPCCluster()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := func() *mapreduce.Engine { return mapreduce.NewEngine(cluster.New(tc.cfg)) }
				gen, err := pagerank.Run(eng(), f.subs["multilevel"], pagerank.DefaultConfig(), false)
				if err != nil {
					b.Fatal(err)
				}
				eag, err := pagerank.Run(eng(), f.subs["multilevel"], pagerank.DefaultConfig(), true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(gen.Stats.Duration.Seconds()/eag.Stats.Duration.Seconds(), "speedup")
			}
		})
	}
}

// BenchmarkAblationFaults measures recovery overhead under transient
// task failures (§VI: coarser eager tasks replay more work per failure,
// but overhead stays modest).
func BenchmarkAblationFaults(b *testing.B) {
	f := buildPRFixture(b, benchScale, []partition.Method{partition.Multilevel}, 8)
	for _, prob := range []float64{0, 0.01, 0.05} {
		b.Run(fmt.Sprintf("p=%g", prob), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cluster.EC2LargeCluster()
				cfg.FailureProb = prob
				eng := mapreduce.NewEngine(cluster.New(cfg))
				res, err := pagerank.Run(eng, f.subs["multilevel"], pagerank.DefaultConfig(), true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Failures), "task-failures")
				b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-eager")
			}
		})
	}
}

// --- engine micro-benchmarks (real wall-clock performance) ---------------

func BenchmarkEngineWordCount(b *testing.B) {
	splits := make([]mapreduce.Split[string], 64)
	for i := range splits {
		splits[i] = mapreduce.Split[string]{
			Data: "a b c d e f g h i j", Records: 10, Bytes: 20,
		}
	}
	job := &mapreduce.Job[string, string, int]{
		Name: "wc",
		Map: func(ctx *mapreduce.TaskContext[string, int], split mapreduce.Split[string]) {
			start := 0
			s := split.Data
			for i := 0; i <= len(s); i++ {
				if i == len(s) || s[i] == ' ' {
					if i > start {
						ctx.Emit(s[start:i], 1)
					}
					start = i + 1
				}
			}
		},
		Reduce: func(ctx *mapreduce.TaskContext[string, int], key string, values []int) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			ctx.Emit(key, sum)
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.Run(ec2Engine(), job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionerMultilevel(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Partition(g, 50, partition.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetup times the three calls every PageRank job pays before its
// first step, on pagerank_des's inputs (Graph A / 4, 16 parts), one row
// each so a set-up change shows which of them moved.
func BenchmarkSetup(b *testing.B) {
	cfg := graph.GraphAConfig().Scaled(4)
	g := graph.MustGenerate(cfg)
	a, err := partition.Partition(g, 16, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if graph.MustGenerate(cfg).NumNodes() == 0 {
				b.Fatal("empty graph")
			}
		}
	})
	b.Run("partition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := partition.Partition(g, 16, partition.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("subgraphs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.BuildSubGraphs(g, a.Parts, a.K); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The bottom rung of the benchmark ladder: the two data structures every
// DES step goes through, with nothing around them. One iteration replays
// the traffic of a sched_noop run (bench/README.md) — 64 partitions on a
// ring of degree four, 2000 publishing steps each — so -benchtime 3x times
// a quarter to half a million operations, and the custom metric is host
// nanoseconds per operation.
const (
	rungParts = 64
	rungSteps = 2000
)

func rungAt(v int) simtime.Duration { return simtime.Duration(v) * simtime.Millisecond }

// BenchmarkStore times the versioned store: publish appends every version
// of every partition to a new store, round-robin as a lockstep run does;
// read_at_from and visible_from read each partition's four ring
// neighbors once per step at an advancing time through a cursor, as
// the engine's input read and gate do — the first copies the snapshot
// out, the second returns its version only.
func BenchmarkStore(b *testing.B) {
	payload := make([]float64, 8)
	fill := func() *async.Store[[]float64] {
		st := async.NewStore[[]float64](rungParts)
		for v := 0; v <= rungSteps; v++ {
			for p := 0; p < rungParts; p++ {
				if err := st.Publish(p, v, rungAt(v), payload); err != nil {
					b.Fatal(err)
				}
			}
		}
		return st
	}
	b.Run("publish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rungParts*(rungSteps+1)), "ns/publish")
	})
	reads := func(b *testing.B, read func(st *async.Store[[]float64], q int, at simtime.Duration, hint int) int) {
		st := fill()
		cursors := make([]int, rungParts*4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(cursors)
			for v := 1; v <= rungSteps; v++ {
				for p := 0; p < rungParts; p++ {
					for j, d := range [4]int{-2, -1, 1, 2} {
						got := read(st, (p+d+rungParts)%rungParts, rungAt(v), cursors[p*4+j])
						if got != v {
							b.Fatalf("read v%d at the time of v%d", got, v)
						}
						cursors[p*4+j] = got
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rungParts*rungSteps*4), "ns/read")
	}
	b.Run("read_at_from", func(b *testing.B) {
		reads(b, func(st *async.Store[[]float64], q int, at simtime.Duration, hint int) int {
			snap, idx, ok := st.ReadAtFrom(q, at, hint)
			if !ok || snap.Version != idx {
				return -1
			}
			return idx
		})
	})
	b.Run("visible_from", func(b *testing.B) {
		reads(b, func(st *async.Store[[]float64], q int, at simtime.Duration, hint int) int {
			v, ok := st.VisibleFrom(q, at, hint)
			if !ok {
				return -1
			}
			return v
		})
	})
}

// BenchmarkEventHeap times the DES's event queue in its steady state: one
// pending event per partition, the earliest popped and pushed back a
// little later, once per step of the replayed run.
func BenchmarkEventHeap(b *testing.B) {
	b.Run("push_pop", func(b *testing.B) {
		const ops = rungParts * rungSteps
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var h simtime.EventHeap
			for p := 0; p < rungParts; p++ {
				h.Push(rungAt(p%7), p)
			}
			for n := 0; n < ops; n++ {
				ev := h.Pop()
				h.Push(ev.At+rungAt(1+ev.ID%3), ev.ID)
			}
			if h.Len() != rungParts {
				b.Fatalf("heap holds %d events, want %d", h.Len(), rungParts)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/pop-push")
	})
}

func BenchmarkCensusGeneration(b *testing.B) {
	cfg := kmeans.DefaultCensusConfig().Scaled(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.GenerateCensus(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
