// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V), plus ablations for the design choices DESIGN.md calls
// out. Each benchmark iteration executes the full experiment at a
// reduced workload scale (the shapes survive scaling; see EXPERIMENTS.md)
// and reports the paper's headline quantities as custom metrics:
//
//	sim-seconds-general / sim-seconds-eager   simulated time to converge
//	iters-general / iters-eager               global iterations
//	speedup                                   general / eager time
//
// Run the full paper-size experiments with cmd/asyncmr -scale 1 instead;
// benchmarks exist to track regressions in both correctness shape and
// real (wall-clock) engine performance.
package main

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adapt"
	"repro/internal/async"
	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/kmeans"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/pagerank"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/sssp"
	"repro/internal/trace"
)

// benchScale shrinks workloads so a full figure regenerates in seconds.
const benchScale = 16

func reportPair(b *testing.B, itFig, tFig *harness.Figure) {
	b.Helper()
	genT, eagT := tFig.Series[0].Y, tFig.Series[1].Y
	genIt, eagIt := itFig.Series[0].Y, itFig.Series[1].Y
	var gt, et, gi, ei float64
	for i := range genT {
		gt += genT[i]
		et += eagT[i]
		gi += genIt[i]
		ei += eagIt[i]
	}
	n := float64(len(genT))
	b.ReportMetric(gt/n, "sim-seconds-general")
	b.ReportMetric(et/n, "sim-seconds-eager")
	b.ReportMetric(gi/n, "iters-general")
	b.ReportMetric(ei/n, "iters-eager")
	if et > 0 {
		b.ReportMetric(gt/et, "speedup")
	}
}

// --- Tables ----------------------------------------------------------

func BenchmarkTable1ClusterConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cluster.EC2LargeCluster()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = cluster.New(cfg)
	}
}

func BenchmarkTable2GraphGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ga := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
		gb := graph.MustGenerate(graph.GraphBConfig().Scaled(benchScale))
		b.ReportMetric(float64(ga.NumEdges()), "edges-graphA")
		b.ReportMetric(float64(gb.NumEdges()), "edges-graphB")
	}
}

// --- PageRank: Figures 2-5 --------------------------------------------

func benchPagerankFigures(b *testing.B, graphB bool) {
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(benchScale)
		var itFig, tFig *harness.Figure
		var err error
		if graphB {
			itFig, tFig, err = s.Figures3and5()
		} else {
			itFig, tFig, err = s.Figures2and4()
		}
		if err != nil {
			b.Fatal(err)
		}
		reportPair(b, itFig, tFig)
	}
}

func BenchmarkFigure2PageRankIterationsGraphA(b *testing.B) { benchPagerankFigures(b, false) }
func BenchmarkFigure3PageRankIterationsGraphB(b *testing.B) { benchPagerankFigures(b, true) }

// Figures 4 and 5 come from the same sweeps; separate benches keep the
// per-figure regeneration map explicit.
func BenchmarkFigure4PageRankTimeGraphA(b *testing.B) { benchPagerankFigures(b, false) }
func BenchmarkFigure5PageRankTimeGraphB(b *testing.B) { benchPagerankFigures(b, true) }

// --- SSSP: Figures 6-7 -------------------------------------------------

func benchSSSPFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(benchScale)
		itFig, tFig, err := s.Figures6and7()
		if err != nil {
			b.Fatal(err)
		}
		reportPair(b, itFig, tFig)
	}
}

func BenchmarkFigure6SSSPIterationsGraphA(b *testing.B) { benchSSSPFigures(b) }
func BenchmarkFigure7SSSPTimeGraphA(b *testing.B)       { benchSSSPFigures(b) }

// --- K-Means: Figures 8-9 ----------------------------------------------

func benchKMeansFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(benchScale) // harness caps K-Means scale internally
		itFig, tFig, err := s.Figures8and9()
		if err != nil {
			b.Fatal(err)
		}
		reportPair(b, itFig, tFig)
	}
}

func BenchmarkFigure8KMeansIterations(b *testing.B) { benchKMeansFigures(b) }
func BenchmarkFigure9KMeansTime(b *testing.B)       { benchKMeansFigures(b) }

// --- §VI scalability -----------------------------------------------------

func BenchmarkScalability460(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(benchScale)
		fig, err := s.Scalability()
		if err != nil {
			b.Fatal(err)
		}
		gt, et := fig.Series[0].Y, fig.Series[1].Y
		b.ReportMetric(gt[0], "sim-seconds-general")
		b.ReportMetric(et[0], "sim-seconds-eager")
		if et[0] > 0 {
			b.ReportMetric(gt[0]/et[0], "speedup")
		}
	}
}

// --- Ablations (DESIGN.md §4) --------------------------------------------

// fixture shared by the ablation benches.
type prFixture struct {
	g    *graph.Graph
	subs map[string][]*graph.SubGraph
}

func buildPRFixture(b *testing.B, methods []partition.Method, k int) *prFixture {
	b.Helper()
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
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
	f := buildPRFixture(b, methods, k)
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
	f := buildPRFixture(b, []partition.Method{partition.Multilevel}, 8)
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

// BenchmarkAblationCombiner measures the shuffle reduction from a Hadoop
// combiner on the general formulation (§V-A: combiners compose with the
// partial synchronization API).
func BenchmarkAblationCombiner(b *testing.B) {
	f := buildPRFixture(b, []partition.Method{partition.Multilevel}, 8)
	for _, comb := range []bool{false, true} {
		b.Run(fmt.Sprintf("combiner=%v", comb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := pagerank.DefaultConfig()
				cfg.Combiner = comb
				res, err := pagerank.Run(ec2Engine(), f.subs["multilevel"], cfg, false)
				if err != nil {
					b.Fatal(err)
				}
				var bytes float64
				for _, it := range res.Stats.PerIteration {
					bytes += float64(it.ShuffleBytes)
				}
				b.ReportMetric(bytes/1e6, "shuffle-MB")
				b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-general")
			}
		})
	}
}

// BenchmarkAblationNetwork reproduces the §II claim that partial
// synchronization gains are amplified on cloud networks relative to HPC
// interconnects: the same workload on both cluster models.
func BenchmarkAblationNetwork(b *testing.B) {
	f := buildPRFixture(b, []partition.Method{partition.Multilevel}, 8)
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
	f := buildPRFixture(b, []partition.Method{partition.Multilevel}, 8)
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
				var failures float64
				for _, it := range res.Stats.PerIteration {
					failures += float64(it.Failures)
				}
				b.ReportMetric(failures, "task-failures")
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
			ID: i, Data: "a b c d e f g h i j", Records: 10, Bytes: 20,
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

func BenchmarkGraphGeneration(b *testing.B) {
	cfg := graph.GraphAConfig().Scaled(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.MustGenerate(cfg)
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkSetup times the three calls every PageRank job pays before its
// first step, on pagerank_des's inputs (Graph A / 4, 16 parts), one row
// each so bench.sh's trend shows which of them moved.
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

// The legacy engines' rungs: the two groupings modes_pagerank's general
// and eager legs spend their time in, sized like one of its partitions
// (5 000 keys, 40 000 records per grouping) and driven through the public
// API only, so the same file times any commit. Both groupings replay
// their last plan while the key sequence repeats; "replay" repeats it
// every time, "regroup" changes the first key of every grouping (the
// plan is dropped at once and the grouping rebuilt — the path every
// grouping took before there were plans), "regroup_late" changes the last
// one (the whole plan is replayed in vain first: the worst case).
const (
	rungKeys    = 5000
	rungRecords = 8 * rungKeys
)

// rungKeySeqs returns the two key sequences a rung alternates between:
// the same one twice for "replay", otherwise two that differ in one
// record of each of the groupings the sequence is dealt to — grouping c
// of classes receiving the records whose key is c modulo classes.
func rungKeySeqs(b *testing.B, variant string, classes int) [2][]int64 {
	a := make([]int64, rungRecords)
	for i := range a {
		a[i] = int64((i/8*7 + i%8*611) % rungKeys)
	}
	other := slices.Clone(a)
	changed := make([]bool, classes)
	n := int64(classes)
	change := func(i int) {
		if c := a[i] % n; !changed[c] {
			changed[c] = true
			other[i] = (a[i] + n) % (rungKeys / n * n) // same class, another key
		}
	}
	switch variant {
	case "replay":
	case "regroup":
		for i := range a {
			change(i)
		}
	case "regroup_late":
		for i := len(a) - 1; i >= 0; i-- {
			change(i)
		}
	default:
		b.Fatalf("unknown rung variant %q", variant)
	}
	return [2][]int64{a, other}
}

var rungVariants = []string{"replay", "regroup", "regroup_late"}

// rungPart is the partition payload of the LocalContext rung: the two key
// sequences and the local iteration count that picks one.
type rungPart struct {
	seqs [2][]int64
	iter int
	elem []int32
}

// BenchmarkLocalContext times core's partial-synchronization barrier: one
// gmap task running 32 local iterations, each emitting 40 000 records
// over 5 000 keys from 5 000 lmap elements and folding every group once.
// The custom metric is host nanoseconds per emission, lmap closure and
// lreduce fold included.
func BenchmarkLocalContext(b *testing.B) {
	const localIters = 32
	for _, variant := range rungVariants {
		b.Run(variant, func(b *testing.B) {
			part := &rungPart{seqs: rungKeySeqs(b, variant, 1), elem: make([]int32, rungKeys)}
			for i := range part.elem {
				part.elem[i] = int32(i)
			}
			spec := &core.LocalSpec[*rungPart, int32, int64, float64]{
				Elements: func(p *rungPart) []int32 { return p.elem },
				LMap: func(lc *core.LocalContext[int64, float64], p *rungPart, e int32) {
					for _, k := range p.seqs[p.iter&1][8*e : 8*e+8] {
						lc.EmitLocalIntermediate(k, float64(e))
					}
				},
				LReduce: func(lc *core.LocalContext[int64, float64], _ *rungPart, key int64, values []float64) {
					sum := 0.0
					for _, v := range values {
						sum += v
					}
					lc.EmitLocal(key, sum)
				},
				Apply:         func(p *rungPart, _ *core.LocalContext[int64, float64]) { p.iter++ },
				MaxLocalIters: localIters,
				Output:        func(*mapreduce.TaskContext[int64, float64], *rungPart, *core.LocalContext[int64, float64]) {},
				KeyIndex:      func(k int64) int { return int(k) },
			}
			job := &mapreduce.Job[*rungPart, int64, float64]{Name: "rung", Map: core.BuildGMap(spec)}
			engine := ec2Engine()
			splits := []mapreduce.Split[*rungPart]{{Data: part}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				part.iter = 0
				if _, err := mapreduce.Run(engine, job, splits); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*localIters*rungRecords), "ns/emission")
		})
	}
}

// BenchmarkGrouper times the engine's shuffle-side grouping: one job of
// eight map tasks emitting 5 000 records each into sixteen reduce tasks
// that fold every group once, run again and again on one Job as an
// iterative driver does. The custom metric is host nanoseconds per
// shuffled record, map emission and shuffle included.
func BenchmarkGrouper(b *testing.B) {
	const maps, reduces = 8, 16
	for _, variant := range rungVariants {
		b.Run(variant, func(b *testing.B) {
			seqs := rungKeySeqs(b, variant, reduces)
			var splits [2][]mapreduce.Split[[]int64]
			for s := range splits {
				for m := 0; m < maps; m++ {
					keys := seqs[s][m*rungRecords/maps : (m+1)*rungRecords/maps]
					splits[s] = append(splits[s], mapreduce.Split[[]int64]{ID: m, Data: keys, Records: int64(len(keys))})
				}
			}
			job := &mapreduce.Job[[]int64, int64, float64]{
				Name:       "rung",
				NumReduces: reduces,
				Partition:  mapreduce.Int64Partition,
				Map: func(ctx *mapreduce.TaskContext[int64, float64], split mapreduce.Split[[]int64]) {
					for i, k := range split.Data {
						ctx.Emit(k, float64(i))
					}
				},
				Reduce: func(ctx *mapreduce.TaskContext[int64, float64], key int64, values []float64) {
					sum := 0.0
					for _, v := range values {
						sum += v
					}
					ctx.Emit(key, sum)
				},
			}
			engine := ec2Engine()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mapreduce.Run(engine, job, splits[i&1]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rungRecords), "ns/record")
		})
	}
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

func BenchmarkSSSPEagerSingleRun(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
	g.AssignUniformWeights(1, 100, 42)
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sssp.Run(ec2Engine(), subs, sssp.Config{Source: 0}, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Async mode: bounded-staleness execution (DESIGN.md §5) --------------

// BenchmarkAsyncModesPageRank compares sim-time-to-convergence and
// iteration counts across all three scheduling modes on one partitioned
// graph: the async mode must beat eager in simulated time (it pays one
// job launch for the whole run) while taking more, cheaper, stale
// iterations.
func BenchmarkAsyncModesPageRank(b *testing.B) {
	f := buildPRFixture(b, []partition.Method{partition.Multilevel}, 8)
	for i := 0; i < b.N; i++ {
		gen, err := pagerank.Run(ec2Engine(), f.subs["multilevel"], pagerank.DefaultConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		eag, err := pagerank.Run(ec2Engine(), f.subs["multilevel"], pagerank.DefaultConfig(), true)
		if err != nil {
			b.Fatal(err)
		}
		asy, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), f.subs["multilevel"],
			pagerank.DefaultConfig(), async.Options{Staleness: harness.DefaultStaleness})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gen.Stats.Duration.Seconds(), "sim-seconds-general")
		b.ReportMetric(eag.Stats.Duration.Seconds(), "sim-seconds-eager")
		b.ReportMetric(asy.Stats.Duration.Seconds(), "sim-seconds-async")
		b.ReportMetric(float64(gen.Stats.GlobalIterations), "iters-general")
		b.ReportMetric(float64(eag.Stats.GlobalIterations), "iters-eager")
		b.ReportMetric(asy.Stats.MeanSteps, "iters-async")
		if asy.Stats.Duration > 0 {
			b.ReportMetric(eag.Stats.Duration.Seconds()/asy.Stats.Duration.Seconds(), "speedup-async-vs-eager")
		}
	}
}

// BenchmarkAsyncModesGraphB mirrors the comparison on the denser Graph B.
func BenchmarkAsyncModesGraphB(b *testing.B) {
	g := graph.MustGenerate(graph.GraphBConfig().Scaled(benchScale))
	a, err := partition.Partition(g, 8, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		gen, err := pagerank.Run(ec2Engine(), subs, pagerank.DefaultConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		eag, err := pagerank.Run(ec2Engine(), subs, pagerank.DefaultConfig(), true)
		if err != nil {
			b.Fatal(err)
		}
		asy, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs,
			pagerank.DefaultConfig(), async.Options{Staleness: harness.DefaultStaleness})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gen.Stats.Duration.Seconds(), "sim-seconds-general")
		b.ReportMetric(eag.Stats.Duration.Seconds(), "sim-seconds-eager")
		b.ReportMetric(asy.Stats.Duration.Seconds(), "sim-seconds-async")
		b.ReportMetric(float64(gen.Stats.GlobalIterations), "iters-general")
		b.ReportMetric(float64(eag.Stats.GlobalIterations), "iters-eager")
		b.ReportMetric(asy.Stats.MeanSteps, "iters-async")
		if asy.Stats.Duration > 0 {
			b.ReportMetric(eag.Stats.Duration.Seconds()/asy.Stats.Duration.Seconds(), "speedup-async-vs-eager")
		}
	}
}

// BenchmarkAsyncStaleness sweeps the staleness bound on one workload:
// the scenario axis the async subsystem opens. Lockstep (S=0) pays gate
// waits; free-running (unbounded) pays extra stale steps.
func BenchmarkAsyncStaleness(b *testing.B) {
	f := buildPRFixture(b, []partition.Method{partition.Multilevel}, 8)
	for _, s := range []int{0, 2, 8, async.Unbounded} {
		name := fmt.Sprintf("S=%d", s)
		if s == async.Unbounded {
			name = "S=inf"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), f.subs["multilevel"],
					pagerank.DefaultConfig(), async.Options{Staleness: s})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-async")
				b.ReportMetric(res.Stats.MeanSteps, "steps-mean")
				b.ReportMetric(float64(res.Stats.GateWaits), "gate-waits")
			}
		})
	}
}

// BenchmarkAsyncParallel measures real wall-clock scaling of the
// parallel executor against the sequential DES on the same workloads
// (run with -cpu 1,4 to see the GOMAXPROCS effect). Simulated results
// are identical by construction — parity is asserted — so ns/op isolates
// executor throughput; speculated-frac reports what share of the steps
// a kept speculation satisfied, and spec-depth the
// peak number in flight at once (the usable overlap). Run with -benchmem
// to track the speculated path's allocations against BENCH_PR3.json
// (scripts/alloc_guard.sh enforces the threshold in CI).
func BenchmarkAsyncParallel(b *testing.B) {
	const parallelScale = 4 // heavier per-step compute than benchScale
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(parallelScale))
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	pts, err := kmeans.GenerateCensus(kmeans.DefaultCensusConfig().Scaled(2))
	if err != nil {
		b.Fatal(err)
	}
	// Parity baselines shared across the executor sub-benchmarks: the
	// DES rows run first and every later run — either executor, any
	// GOMAXPROCS — must reproduce their virtual-time results exactly.
	var basePR, baseKM, baseCC *async.RunStats
	for _, ex := range []async.Executor{async.DES, async.Parallel} {
		opt := async.Options{Staleness: harness.DefaultStaleness, Executor: ex}
		b.Run("pagerank/"+ex.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs,
					pagerank.DefaultConfig(), opt)
				if err != nil {
					b.Fatal(err)
				}
				if basePR == nil {
					basePR = res.Stats
				} else if res.Stats.Duration != basePR.Duration || res.Stats.Steps != basePR.Steps {
					b.Fatalf("%v diverged from DES baseline: %v/%d vs %v/%d",
						ex, res.Stats.Duration, res.Stats.Steps, basePR.Duration, basePR.Steps)
				}
				b.ReportMetric(float64(res.Stats.Speculated)/float64(res.Stats.Steps), "speculated-frac")
				b.ReportMetric(float64(res.Stats.SpecDepth), "spec-depth")
			}
		})
		b.Run("kmeans/"+ex.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := kmeans.RunAsync(cluster.New(cluster.EC2LargeCluster()), pts, 13,
					kmeans.DefaultConfig(0.01), opt)
				if err != nil {
					b.Fatal(err)
				}
				if baseKM == nil {
					baseKM = res.Stats
				} else if res.Stats.Duration != baseKM.Duration || res.Stats.Steps != baseKM.Steps {
					b.Fatalf("%v diverged from DES baseline: %v/%d vs %v/%d",
						ex, res.Stats.Duration, res.Stats.Steps, baseKM.Duration, baseKM.Steps)
				}
				b.ReportMetric(float64(res.Stats.Speculated)/float64(res.Stats.Steps), "speculated-frac")
				b.ReportMetric(float64(res.Stats.SpecDepth), "spec-depth")
			}
		})
		b.Run("cc/"+ex.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cc.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs, cc.Config{}, opt)
				if err != nil {
					b.Fatal(err)
				}
				if baseCC == nil {
					baseCC = res.Stats
				} else if res.Stats.Duration != baseCC.Duration || res.Stats.Steps != baseCC.Steps {
					b.Fatalf("%v diverged from DES baseline: %v/%d vs %v/%d",
						ex, res.Stats.Duration, res.Stats.Steps, baseCC.Duration, baseCC.Steps)
				}
				b.ReportMetric(float64(res.Stats.Speculated)/float64(res.Stats.Steps), "speculated-frac")
				b.ReportMetric(float64(res.Stats.SpecDepth), "spec-depth")
			}
		})
	}
}

// BenchmarkAsyncTraced is BenchmarkAsyncParallel's pagerank/parallel
// row with the event recorder attached: the speculated step path under
// full tracing, every hook firing. Its ns/op and allocs/op against the
// untraced row measure the recorder's whole overhead — the per-run
// ring allocation plus the locked appends — which the tentpole bounds
// at ~10% of the untraced budget (scripts/alloc_guard.sh enforces
// 2750 vs the untraced 2500). Parity with the untraced DES trajectory
// is asserted, so the row also re-proves inertness at bench scale.
func BenchmarkAsyncTraced(b *testing.B) {
	const parallelScale = 4 // match BenchmarkAsyncParallel's workload
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(parallelScale))
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	var base *async.RunStats
	b.Run("pagerank/parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := trace.NewRecorder(trace.DefaultCapacity)
			opt := async.Options{Staleness: harness.DefaultStaleness, Executor: async.Parallel, Trace: rec}
			res, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs,
				pagerank.DefaultConfig(), opt)
			if err != nil {
				b.Fatal(err)
			}
			if base == nil {
				untraced := opt
				untraced.Trace = nil
				ref, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs,
					pagerank.DefaultConfig(), untraced)
				if err != nil {
					b.Fatal(err)
				}
				base = ref.Stats
			}
			if res.Stats.Duration != base.Duration || res.Stats.Steps != base.Steps {
				b.Fatalf("traced run diverged from untraced baseline: %v/%d vs %v/%d",
					res.Stats.Duration, res.Stats.Steps, base.Duration, base.Steps)
			}
			if rec.Len() == 0 {
				b.Fatal("recorder captured no events")
			}
			b.ReportMetric(float64(rec.Len())+float64(rec.Dropped()), "events")
		}
	})
}

// BenchmarkAsyncSeries is BenchmarkAsyncTraced's workload with the
// time-series sampler attached instead of the event recorder: the
// speculated step path under fixed-interval sampling, every per-tick
// capture (residuals, staleness occupancy, store versions) firing. Its
// ns/op and allocs/op against the unsampled row measure the sampler's
// whole overhead, which scripts/alloc_guard.sh bounds alongside the
// recorder's. Parity with the unsampled trajectory is asserted, so the
// row also re-proves sampling inertness at bench scale.
func BenchmarkAsyncSeries(b *testing.B) {
	const parallelScale = 4 // match BenchmarkAsyncParallel's workload
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(parallelScale))
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	opt := async.Options{Staleness: harness.DefaultStaleness, Executor: async.Parallel}
	base, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs,
		pagerank.DefaultConfig(), opt)
	if err != nil {
		b.Fatal(err)
	}
	interval := base.Stats.Duration / 64
	b.Run("pagerank/parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ser := metrics.NewSeries(interval, 0)
			o := opt
			o.Series = ser
			res, err := pagerank.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs,
				pagerank.DefaultConfig(), o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Duration != base.Stats.Duration || res.Stats.Steps != base.Stats.Steps {
				b.Fatalf("sampled run diverged from unsampled baseline: %v/%d vs %v/%d",
					res.Stats.Duration, res.Stats.Steps, base.Stats.Duration, base.Stats.Steps)
			}
			if ser.Len() < 3 {
				b.Fatalf("sampler captured only %d samples", ser.Len())
			}
			b.ReportMetric(float64(res.Stats.SeriesSamples), "samples")
		}
	})
}

// BenchmarkAsyncLive measures the live executor: real partition compute
// on the work-stealing pool, costs from monotonic wall-clock deltas
// (run with -cpu 1,4 to see the GOMAXPROCS effect). The emulated
// publish-visibility delay is scaled down so ns/op tracks engine
// overhead — dispatch, gating, the measured-cost bookkeeping — rather
// than deliberately-injected latency sleeps; the headline latency-hiding
// speedup at full model latency is the harness livescaling figure.
// Lockstep (S=0) stresses the gate/park/wake machinery, free-running
// (S=inf) the steal-heavy dispatch path. Run with -benchmem to track the
// live step path's allocations (scripts/alloc_guard.sh enforces the
// budget in CI).
func BenchmarkAsyncLive(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	cfg := *cluster.EC2LargeCluster()
	cfg.LiveNetScale = 0.02
	for _, s := range []int{0, async.Unbounded} {
		name := "pagerank/S=0"
		if s == async.Unbounded {
			name = "pagerank/S=inf"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pagerank.RunAsync(cluster.New(&cfg), subs, pagerank.DefaultConfig(),
					async.Options{Staleness: s, Executor: async.Live, Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stats.Converged {
					b.Fatal("live run did not converge")
				}
				b.ReportMetric(res.Stats.Duration.Seconds()*1e3, "measured-ms")
				b.ReportMetric(res.Stats.LiveComputeTime.Seconds()*1e3, "compute-ms")
				b.ReportMetric(float64(res.Stats.LiveSteals), "steals")
				b.ReportMetric(res.Stats.MeanSteps, "steps-mean")
			}
		})
	}
}

// BenchmarkAsyncAdaptive measures the adaptive staleness-control
// subsystem (internal/adapt) on async PageRank over the cross-rack
// cluster — the setting where gate waits are material: the static
// DefaultStaleness bound against the aimd and drift per-worker
// controllers, on the parallel executor so the controller's
// monotonically-safe bound consumption rides the speculation hot path.
// Reported metrics expose the trade the controller navigates
// (gate-wait time vs mean steps) and its trajectory; run with -benchmem
// to track the adaptive path's allocations (scripts/alloc_guard.sh
// enforces the budget in CI).
func BenchmarkAsyncAdaptive(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pol  adapt.Policy
	}{
		{"fixed", nil},
		{"aimd", adapt.AIMDDefault()},
		{"drift", adapt.DriftDefault()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pagerank.RunAsync(cluster.New(cluster.EC2CrossRackCluster()), subs,
					pagerank.DefaultConfig(),
					async.Options{Staleness: harness.DefaultStaleness, Executor: async.Parallel, Adapt: tc.pol})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-async")
				b.ReportMetric(res.Stats.GateWaitTime.Seconds(), "gate-wait-seconds")
				b.ReportMetric(res.Stats.StalenessMean, "staleness-mean")
				b.ReportMetric(float64(res.Stats.AdaptRaises+res.Stats.AdaptCuts), "bound-changes")
			}
		})
	}
}

// BenchmarkAsyncCC measures the connected-components workload
// (internal/cc) end to end on the async runtime: min-label propagation
// is monotone, so like SSSP it is exact at any staleness.
func BenchmarkAsyncCC(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := cc.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs, cc.Config{},
			async.Options{Staleness: harness.DefaultStaleness})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-async")
		b.ReportMetric(float64(res.Components()), "components")
	}
}

// BenchmarkAsyncRecovery measures the worker-crash fault model
// (internal/recovery) end to end on async PageRank: a crash-free
// baseline, a crash-free run that still pays an every-8-steps
// checkpoint cadence (pure overhead), and a harsh-MTTF run whose
// recoveries restore checkpoints and replay lost steps. The cost model
// shrinks the one-time job launch so the crash exposure lands in the
// stepping phase. Reported metrics expose both sides of the trade-off;
// run with -benchmem to track the recovery path's allocations
// (scripts/alloc_guard.sh guards the crash-free path's budget in CI).
func BenchmarkAsyncRecovery(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	// The shared recovery cost model (shrunk launch, no noise): the
	// alloc-guard thresholds are tuned against this configuration.
	base := harness.NewSuite(benchScale).RecoveryCluster()
	for _, tc := range []struct {
		name string
		mttf simtime.Duration
		pol  recovery.Policy
	}{
		{"crashfree", 0, nil},
		{"ckpt-only", 0, recovery.EverySteps(8)},
		{"mttf=1s", simtime.Second, recovery.EverySteps(8)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := *base
				cfg.CrashMTTF = tc.mttf
				res, err := pagerank.RunAsync(cluster.New(&cfg), subs, pagerank.DefaultConfig(),
					async.Options{Staleness: harness.DefaultStaleness, Checkpoint: tc.pol})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.Duration.Seconds(), "sim-seconds-async")
				b.ReportMetric(float64(res.Stats.Crashes), "crashes")
				b.ReportMetric(float64(res.Stats.LostSteps), "lost-steps")
				b.ReportMetric(res.Stats.CheckpointTime.Seconds(), "ckpt-seconds")
				b.ReportMetric(res.Stats.RecoveryTime.Seconds(), "recovery-seconds")
			}
		})
	}
}

// BenchmarkAsyncSSSP measures the async mode on the monotone workload,
// where any staleness still yields exact distances.
func BenchmarkAsyncSSSP(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(benchScale))
	g.AssignUniformWeights(1, 100, 42)
	a, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eag, err := sssp.Run(ec2Engine(), subs, sssp.Config{Source: 0}, true)
		if err != nil {
			b.Fatal(err)
		}
		asy, err := sssp.RunAsync(cluster.New(cluster.EC2LargeCluster()), subs,
			sssp.Config{Source: 0}, async.Options{Staleness: harness.DefaultStaleness})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(eag.Stats.Duration.Seconds(), "sim-seconds-eager")
		b.ReportMetric(asy.Stats.Duration.Seconds(), "sim-seconds-async")
	}
}

// BenchmarkAsyncKMeans measures the parameter-server style dense
// exchange: every partition reads every other's accumulators.
func BenchmarkAsyncKMeans(b *testing.B) {
	pts, err := kmeans.GenerateCensus(kmeans.DefaultCensusConfig().Scaled(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eag, err := kmeans.Run(ec2Engine(), pts, 13, kmeans.DefaultConfig(0.01), true)
		if err != nil {
			b.Fatal(err)
		}
		asy, err := kmeans.RunAsync(cluster.New(cluster.EC2LargeCluster()), pts, 13,
			kmeans.DefaultConfig(0.01), async.Options{Staleness: harness.DefaultStaleness})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(eag.Stats.Duration.Seconds(), "sim-seconds-eager")
		b.ReportMetric(asy.Stats.Duration.Seconds(), "sim-seconds-async")
	}
}
