package pagerank

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

// jobState is one partition as the job oracles keep it: ranks and the
// eager gmap's frozen ghost sums, both by local index, loaded from the
// driver's ranks before every map task.
type jobState struct {
	sub         *graph.SubGraph
	rank, ghost []float64
}

// emitContributions is the global map output as records: the
// partition's sums (pushSums) emitted in ascending key order, charged
// one operation per out-edge.
func emitContributions(tc *mapreduce.TaskContext[int64, float64], st *jobState) {
	keys, sums, ops := pushSums(st.sub, st.rank)
	tc.Charge(ops)
	for i, k := range keys {
		tc.Emit(k, sums[i])
	}
}

// buildJob is one global iteration as the MapReduce job the native run
// models, with gmap as its map: the general formulation's is
// emitContributions. The greduce is shared — as the paper observes, "the
// local reduce and global reduce functions are functionally identical".
func buildJob(cfg Config, gmap mapreduce.MapFunc[*jobState, int64, float64]) *mapreduce.Job[*jobState, int64, float64] {
	return &mapreduce.Job[*jobState, int64, float64]{
		Name:      "pagerank",
		Map:       gmap,
		Partition: mapreduce.Int64Partition,
		Reduce: func(ctx *mapreduce.TaskContext[int64, float64], key int64, values []float64) {
			sum := 0.0
			for _, v := range values {
				sum += v
			}
			ctx.Charge(int64(len(values)))
			ctx.Emit(key, (1-cfg.Damping)+cfg.Damping*sum)
		},
	}
}

// generalMap is the general formulation's gmap through the engine.
func generalMap(tc *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*jobState]) {
	emitContributions(tc, split.Data)
}

// runEngine is Run as the MapReduce jobs it models, core.Iterate around
// mapreduce.Run: job is one iteration's. It keeps every node's rank, from
// 1, by node as a job driver does, and wraps the job's map so that every
// map task first loads its partition's ranks, and in the eager
// formulation its ghost sums, from them.
func runEngine(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool, job *mapreduce.Job[*jobState, int64, float64]) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := 0
	for _, s := range subs {
		n += s.NumNodes()
	}
	ranks, outDeg, fed := make([]float64, n), make([]int32, n), make([]bool, n)
	splits := make([]mapreduce.Split[*jobState], len(subs))
	for i, s := range subs {
		for li, u := range s.Nodes {
			ranks[u], outDeg[u] = 1, s.OutDeg[li]
			for _, d := range s.OutLocal[li] {
				fed[s.Nodes[d]] = true
			}
			for _, v := range s.OutRemote[li] {
				fed[v] = true
			}
		}
		st := &jobState{sub: s, rank: make([]float64, s.NumNodes()), ghost: make([]float64, s.NumNodes())}
		splits[i] = mapreduce.Split[*jobState]{Data: st, Records: int64(s.NumNodes()), Bytes: s.Bytes}
	}
	var noIn []int // the nodes no reduce emits a rank for
	for u, f := range fed {
		if !f {
			noIn = append(noIn, u)
		}
	}
	base := 1 - cfg.Damping
	gmap := job.Map
	job.Map = func(tc *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*jobState]) {
		st := split.Data
		for li, u := range st.sub.Nodes {
			st.rank[li] = ranks[u]
			if eager {
				sum := 0.0
				for _, s := range st.sub.InRemote[li] {
					sum += ranks[s] / float64(outDeg[s])
				}
				st.ghost[li] = sum
			}
		}
		gmap(tc, split)
	}
	stats, err := core.Iterate(func(int) (mapreduce.Cost, bool, error) {
		res, err := mapreduce.Run(engine, job, splits)
		if err != nil {
			return mapreduce.Cost{}, false, err
		}
		if len(res.Output)+len(noIn) != n {
			return mapreduce.Cost{}, false, fmt.Errorf("reduce emitted %d ranks, want %d", len(res.Output), n-len(noIn))
		}
		delta := 0.0
		for _, kv := range res.Output {
			delta = max(delta, math.Abs(kv.Value-ranks[kv.Key]))
			ranks[kv.Key] = kv.Value
		}
		for _, u := range noIn {
			delta = max(delta, math.Abs(base-ranks[u]))
			ranks[u] = base
		}
		return res.Cost, delta < cfg.Epsilon, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Ranks: ranks, Stats: stats}, nil
}

// oracleCase is one input and cluster of the engine oracles' matrix:
// subs on config's cluster (EC2 when nil) seeded with seed.
type oracleCase struct {
	name   string
	subs   []*graph.SubGraph
	seed   uint64
	config func() *cluster.Config
}

// oracleCases is the matrix TestGeneralMatchesEngine and
// TestEagerMatchesSpec share: Graph A ÷96 on EC2 in 3 to 40 parts, the
// partitioner and the cluster seeded alike with two seeds; in 8 parts on
// EC2 replaying one task attempt in twenty, and on the HPC preset, which
// draws no straggler, with EC2's jitter; and handBuilt, whose node 3 no
// partition emits.
func oracleCases(t *testing.T) []oracleCase {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(96))
	var cases []oracleCase
	for _, c := range []struct {
		parts int
		seed  uint64
	}{{8, 1}, {8, 2}, {16, 1}, {3, 1}, {40, 1}} {
		a, err := partition.Partition(g, c.parts, partition.Options{Method: partition.Multilevel, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("A÷96/%d parts/seed %d", c.parts, c.seed), subs, c.seed, nil})
	}
	return append(cases,
		oracleCase{cases[0].name + "/ec2 failing 5%", cases[0].subs, 1, func() *cluster.Config {
			c := cluster.EC2LargeCluster()
			c.FailureProb = 0.05
			return c
		}},
		oracleCase{cases[0].name + "/hpc with ec2 jitter", cases[0].subs, 1, func() *cluster.Config {
			c := cluster.HPCCluster()
			c.StragglerJitter = cluster.EC2LargeCluster().StragglerJitter
			return c
		}},
		oracleCase{"hand-built in 3 parts", handBuilt(t), 1, nil})
}

// engine returns a new engine on the case's cluster.
func (c oracleCase) engine() *mapreduce.Engine {
	cfg := cluster.EC2LargeCluster()
	if c.config != nil {
		cfg = c.config()
	}
	cfg.Seed = c.seed
	return mapreduce.NewEngine(cluster.New(cfg))
}

// sameRun fails unless got has want's ranks bit for bit and its run
// statistics.
func sameRun(t *testing.T, got, want *Result, oracle string) {
	t.Helper()
	for u := range want.Ranks {
		if math.Float64bits(got.Ranks[u]) != math.Float64bits(want.Ranks[u]) {
			t.Fatalf("node %d: rank %v, %s %v", u, got.Ranks[u], oracle, want.Ranks[u])
		}
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("run statistics differ: %+v, %s %+v", *got.Stats, oracle, *want.Stats)
	}
}

// TestGeneralMatchesEngine: the general formulation's native global
// iterations give the ranks and the run statistics (iterations, shuffle
// records, replayed attempts, simulated time to the bit) that its job
// through mapreduce.Run gives, across oracleCases.
func TestGeneralMatchesEngine(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			got, err := Run(c.engine(), c.subs, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runEngine(c.engine(), c.subs, cfg, false, buildJob(cfg, generalMap))
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, got, want, "the engine")
		})
	}
}

// FuzzGlobalIterationsMatchOracle holds both formulations to their jobs
// through the engine on graphs and partitions decoded from the fuzz
// input, bit for bit in ranks and run statistics: the general run to
// runEngine with generalMap, the eager run to lmap/lreduce (runSpec).
// Byte 0 gives the node count, byte 1 the partition count, byte 2 the
// eager formulation's MaxLocalIters (bits 0-1: 0, 1, 3, 0) and byte 3
// the cluster seed; the rest is fuzzSubGraphs' assignment and edges.
// The committed corpus holds a graph whose every edge crosses the cut,
// one in a single partition, and one with a node fed from partitions
// below and above its owner as well as from its own.
func FuzzGlobalIterationsMatchOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		subs := fuzzSubGraphs(t, data[0], data[1], data[4:])
		c := oracleCase{subs: subs, seed: uint64(data[3])}
		cfg := DefaultConfig()
		got, err := Run(c.engine(), subs, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runEngine(c.engine(), subs, cfg, false, buildJob(cfg, generalMap))
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, got, want, "the engine")
		cfg.MaxLocalIters = []int{0, 1, 3, 0}[data[2]&3]
		if got, err = Run(c.engine(), subs, cfg, true); err != nil {
			t.Fatal(err)
		}
		if want, err = runSpec(c.engine(), subs, cfg); err != nil {
			t.Fatal(err)
		}
		sameRun(t, got, want, "lmap/lreduce")
	})
}

// TestGlobalIterationsShareSubGraphs: a general or eager run shares the
// plans its sub-graphs carry and writes nothing of them, so two runs of
// each formulation on one sub-graph set at the same time each reproduce
// the ranks and run statistics of the same run made alone, bit for bit.
func TestGlobalIterationsShareSubGraphs(t *testing.T) {
	subs := subgraphs(t, smallGraph(), 8)
	alone := make(map[bool]*Result)
	for _, eager := range []bool{false, true} {
		res, err := Run(engine(), subs, DefaultConfig(), eager)
		if err != nil {
			t.Fatal(err)
		}
		alone[eager] = res
	}
	eagers := []bool{false, true, false, true}
	together := make([]*Result, len(eagers))
	errs := make([]error, len(eagers))
	var wg sync.WaitGroup
	for i, eager := range eagers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = Run(engine(), subs, DefaultConfig(), eager)
		}()
	}
	wg.Wait()
	for i, eager := range eagers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameRun(t, together[i], alone[eager], fmt.Sprintf("eager %v alone", eager))
	}
}
