package sssp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

// runEngine is Run as the MapReduce jobs it models, core.Iterate around
// mapreduce.Run: job is one iteration's. Between iterations it keeps
// every node's best distance and disseminates improvements into the
// partitions, activating the nodes they improve.
func runEngine(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, job *mapreduce.Job[*state, int64, float64]) (*Result, error) {
	n, err := validate(subs, cfg)
	if err != nil {
		return nil, err
	}
	d := newRun(engine, subs, cfg, false, n)
	dist := d.dist
	splits := make([]mapreduce.Split[*state], len(d.states))
	for i, st := range d.states {
		splits[i] = mapreduce.Split[*state]{Data: st, Records: int64(st.sub.NumNodes()), Bytes: st.sub.Bytes}
	}
	stats, err := core.Iterate(func(int) (mapreduce.Cost, bool, error) {
		res, err := mapreduce.Run(engine, job, splits)
		if err != nil {
			return mapreduce.Cost{}, false, err
		}
		improved := false
		for _, kv := range res.Output {
			if kv.Value < dist[kv.Key] {
				dist[kv.Key] = kv.Value
				improved = true
			}
		}
		// A node a capped sweep left active stays so.
		for _, st := range d.states {
			for li, u := range st.sub.Nodes {
				if dist[u] < st.dist[li] {
					st.dist[li] = dist[u]
					st.active[li] = true
				}
			}
		}
		return res.Cost, !improved, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dist: dist, Stats: stats}, nil
}

// emitSorted mirrors pagerank's deterministic emission of accumulated
// candidates.
func emitSorted(emit func(int64, float64), acc map[int64]float64) {
	keys := make([]int64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		emit(k, acc[k])
	}
}

// minInto keeps the smaller candidate per destination.
func minInto(acc map[int64]float64, key int64, d float64) {
	if old, ok := acc[key]; !ok || d < old {
		acc[key] = d
	}
}

// buildJob assembles the per-iteration job: the general formulation maps
// with generalMap, the eager one with the lmap/lreduce program
// (eagerSpec) through core.BuildGMap; the reduce (min per node) is shared
// between formulations.
func buildJob(cfg Config, eager bool) *mapreduce.Job[*state, int64, float64] {
	job := &mapreduce.Job[*state, int64, float64]{
		Name:      "sssp-general",
		Partition: mapreduce.Int64Partition,
		Reduce: func(ctx *mapreduce.TaskContext[int64, float64], key int64, values []float64) {
			best := math.Inf(1)
			for _, v := range values {
				if v < best {
					best = v
				}
			}
			ctx.Charge(int64(len(values)))
			ctx.Emit(key, best)
		},
	}
	if !eager {
		job.Map = generalMap
		return job
	}
	job.Name = "sssp-eager"
	job.Map = core.BuildGMap(eagerSpec(cfg))
	return job
}

// generalMap performs one synchronous relaxation sweep: every node with a
// finite distance emits a candidate for each out-edge, aggregated (min)
// per destination within the partition.
func generalMap(ctx *mapreduce.TaskContext[int64, float64], split mapreduce.Split[*state]) {
	st := split.Data
	sub := st.sub
	acc := make(map[int64]float64)
	var ops int64
	for li := range sub.Nodes {
		d := st.dist[li]
		if math.IsInf(d, 1) {
			continue
		}
		for ei, dst := range sub.OutLocal[li] {
			minInto(acc, int64(sub.Nodes[dst]), d+sub.WLocal[li][ei])
		}
		for ei, dst := range sub.OutRemote[li] {
			minInto(acc, int64(dst), d+sub.WRemote[li][ei])
		}
		ops += int64(sub.OutDeg[li])
	}
	ctx.Charge(ops)
	emitSorted(ctx.Emit, acc)
}

// emitSettled is the eager global emission: every node at a finite
// distance publishes it (so the global reduction learns what the local
// sweeps discovered) and pushes candidates across its cross-partition
// out-edges (the inter-component information the local sweeps could not
// use), aggregated (min) per destination.
func emitSettled(tc *mapreduce.TaskContext[int64, float64], st *state) {
	sub := st.sub
	acc := make(map[int64]float64)
	var ops int64
	for li := range sub.Nodes {
		d := st.dist[li]
		if math.IsInf(d, 1) {
			continue
		}
		minInto(acc, int64(sub.Nodes[li]), d)
		for ei, dst := range sub.OutRemote[li] {
			minInto(acc, int64(dst), d+sub.WRemote[li][ei])
		}
		ops += int64(len(sub.OutRemote[li])) + 1
	}
	tc.Charge(ops)
	emitSorted(tc.Emit, acc)
}

// oracleCase is one input, configuration and cluster of the engine
// oracles' matrix: subs on config's cluster (EC2 when nil).
type oracleCase struct {
	name   string
	subs   []*graph.SubGraph
	cfg    Config
	config func() *cluster.Config
}

// engine returns a new engine on the case's cluster.
func (c oracleCase) engine() *mapreduce.Engine {
	if c.config == nil {
		return engine()
	}
	return mapreduce.NewEngine(cluster.New(c.config()))
}

// specCases is the engine oracles' matrix: partition counts from 3 to
// 40, multilevel and hash partitioning, several sources, and local
// iterations capped, on EC2; then the first case on EC2 replaying one
// task attempt in twenty and on the HPC preset, which draws no
// straggler, with EC2's jitter.
func specCases(t *testing.T) []oracleCase {
	var cases []oracleCase
	for _, c := range []struct {
		shrink, parts, maxLocal int
		method                  partition.Method
		source                  graph.NodeID
	}{
		{140, 8, 0, partition.Multilevel, 0},
		{140, 8, 1, partition.Multilevel, 5},
		{140, 8, 3, partition.Multilevel, 17},
		{140, 3, 0, partition.Multilevel, 5},
		{140, 40, 3, partition.Multilevel, 0},
		{140, 8, 0, partition.Hash, 17},
		{60, 16, 0, partition.Multilevel, 0},
	} {
		g := graph.MustGenerate(graph.GraphAConfig().Scaled(c.shrink))
		g.AssignUniformWeights(1, 100, 42)
		a, err := partition.Partition(g, c.parts, partition.Options{Method: c.method, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("A÷%d/%d %v parts/source %d/MaxLocalIters %d", c.shrink, c.parts, c.method, c.source, c.maxLocal)
		cases = append(cases, oracleCase{name, subs, Config{Source: c.source, MaxLocalIters: c.maxLocal}, nil})
	}
	return append(cases,
		oracleCase{cases[0].name + "/ec2 failing 5%", cases[0].subs, cases[0].cfg, func() *cluster.Config {
			c := cluster.EC2LargeCluster()
			c.FailureProb = 0.05
			return c
		}},
		oracleCase{cases[0].name + "/hpc with ec2 jitter", cases[0].subs, cases[0].cfg, func() *cluster.Config {
			c := cluster.HPCCluster()
			c.StragglerJitter = cluster.EC2LargeCluster().StragglerJitter
			return c
		}})
}

// sameRun fails unless got has want's distances bit for bit and its run
// statistics.
func sameRun(t *testing.T, got, want *Result, oracle string) {
	t.Helper()
	for u := range want.Dist {
		if math.Float64bits(got.Dist[u]) != math.Float64bits(want.Dist[u]) {
			t.Fatalf("node %d: distance %v, %s %v", u, got.Dist[u], oracle, want.Dist[u])
		}
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("run statistics differ: %+v, %s %+v", *got.Stats, oracle, *want.Stats)
	}
}

// TestGeneralMatchesEngine: the general formulation's native global
// iterations give the distances and the run statistics (iterations,
// shuffle records, replayed attempts, simulated time to the bit) that its
// job through mapreduce.Run gives, over specCases.
func TestGeneralMatchesEngine(t *testing.T) {
	for _, c := range specCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got, err := Run(c.engine(), c.subs, c.cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runEngine(c.engine(), c.subs, c.cfg, buildJob(c.cfg, false))
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, got, want, "the engine")
		})
	}
}

// FuzzGlobalIterationsMatchOracle holds both formulations to their jobs
// through the engine (runEngine with buildJob) on weighted graphs and
// partitions decoded from the fuzz input, bit for bit in distances and
// run statistics. Byte 0 gives the node count, 1 to 24, byte 1 the
// partition count, 1 to the node count, byte 2 MaxLocalIters (bits 0-1:
// 0, 1, 3, 0), byte 3 the EC2 cluster's seed and byte 4 the source; then
// one assignment byte per node (partitions no node names are closed up),
// then edges as (source, destination, weight) byte triples, a weight of
// b/4, so zero weights and exact ties are common. The committed corpus
// holds a graph whose every edge crosses the cut, one in a single
// partition, and one with a node the source cannot reach beside a node
// fed from partitions below and above its owner as well as from its own.
func FuzzGlobalIterationsMatchOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		subs, n := fuzzSubGraphs(t, data[0], data[1], data[5:])
		cfg := Config{Source: graph.NodeID(int(data[4]) % n), MaxLocalIters: []int{0, 1, 3, 0}[data[2]&3]}
		c := oracleCase{subs: subs, cfg: cfg, config: func() *cluster.Config {
			c := cluster.EC2LargeCluster()
			c.Seed = uint64(data[3])
			return c
		}}
		for _, eager := range []bool{false, true} {
			got, err := Run(c.engine(), subs, cfg, eager)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runEngine(c.engine(), subs, cfg, buildJob(cfg, eager))
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, got, want, fmt.Sprintf("the engine (eager %v)", eager))
		}
	})
}

// fuzzSubGraphs decodes a fuzz input's weighted graph and returns its
// sub-graphs and node count: nb gives the node count, 1 to 24, kb the
// partition count, 1 to the node count; then one assignment byte per
// node, then edges as (source, destination, weight) byte triples.
func fuzzSubGraphs(t *testing.T, nb, kb byte, data []byte) ([]*graph.SubGraph, int) {
	n := 1 + int(nb)%24
	k := 1 + int(kb)%n
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	parts := make([]int32, n)
	used := make([]int32, k)
	for u := range parts {
		parts[u] = int32(next() % k)
		used[parts[u]] = 1
	}
	k = 0
	for p, u := range used { // used[p] becomes p's rank among the named partitions
		used[p] = int32(k)
		k += int(u)
	}
	for u, p := range parts {
		parts[u] = used[p]
	}
	g := &graph.Graph{Out: make([][]graph.NodeID, n), Weights: make([][]float64, n)}
	for len(data) >= 3 {
		u := next() % n
		g.Out[u] = append(g.Out[u], graph.NodeID(next()%n))
		g.Weights[u] = append(g.Weights[u], float64(next())/4)
	}
	subs, err := graph.BuildSubGraphs(g, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return subs, n
}
