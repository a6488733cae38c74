package pagerank

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

// specPart is the lmap/lreduce reference's own per-partition scratch.
type specPart struct {
	// elems is the lmap element list, the local node indices.
	elems []int32
	// next receives new ranks during Apply; delta is the last local
	// iteration's largest rank change.
	next  []float64
	delta float64
}

// eagerSpec is the eager gmap as the paper writes it, lmap and lreduce
// through core.BuildGMap, and the reference eagerMap is held to.
// parts[s] is sub-graph s's scratch.
func eagerSpec(cfg Config, parts map[*graph.SubGraph]*specPart) *core.LocalSpec[*state, int32, int64, float64] {
	return &core.LocalSpec[*state, int32, int64, float64]{
		Elements: func(st *state) []int32 { return parts[st.sub].elems },
		// lmap: push rank along partition-internal edges only;
		// cross-partition neighbors wait for the global synchronization.
		LMap: func(lc *core.LocalContext[int64, float64], st *state, li int32) {
			sub := st.sub
			deg := sub.OutDeg[li]
			if deg == 0 {
				return
			}
			c := st.rank[li] / float64(deg)
			for _, dst := range sub.OutLocal[li] {
				lc.EmitLocalIntermediate(int64(dst), c)
			}
			lc.Charge(int64(len(sub.OutLocal[li])))
		},
		// lreduce: fold local contributions with the frozen ghost sum.
		LReduce: func(lc *core.LocalContext[int64, float64], st *state, key int64, values []float64) {
			sum := st.local.ghost[st.sub.Pull.Pos[key]]
			for _, v := range values {
				sum += v
			}
			lc.Charge(int64(len(values)))
			lc.EmitLocal(key, (1-cfg.Damping)+cfg.Damping*sum)
		},
		// Partial synchronization barrier: integrate new local ranks,
		// measure the local delta.
		Apply: func(st *state, lc *core.LocalContext[int64, float64]) {
			sp := parts[st.sub]
			base := 1 - cfg.Damping
			for li, r := range st.sub.Pull.Pos {
				nr := base + cfg.Damping*st.local.ghost[r]
				if v, ok := lc.Value(int64(li)); ok {
					nr = v
				}
				sp.next[li] = nr
			}
			sp.delta = 0
			for li, nr := range sp.next {
				d := nr - st.rank[li]
				if d < 0 {
					d = -d
				}
				if d > sp.delta {
					sp.delta = d
				}
			}
			copy(st.rank, sp.next)
		},
		Converged: func(st *state, _ *core.LocalContext[int64, float64]) bool {
			return parts[st.sub].delta < cfg.Epsilon
		},
		MaxLocalIters: cfg.MaxLocalIters,
		// Global emission: every node pushes its rank to all out-links,
		// internal and cross, aggregated per destination.
		Output: func(tc *mapreduce.TaskContext[int64, float64], st *state, _ *core.LocalContext[int64, float64]) {
			pushContributions(tc, st)
		},
	}
}

// runSpec runs the eager formulation with eagerSpec as its gmap.
func runSpec(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config) (*Result, error) {
	parts := make(map[*graph.SubGraph]*specPart, len(subs))
	for _, s := range subs {
		sp := &specPart{elems: make([]int32, s.NumNodes()), next: make([]float64, s.NumNodes())}
		for i := range sp.elems {
			sp.elems[i] = int32(i)
		}
		parts[s] = sp
	}
	job := buildJob(cfg, true)
	job.Map = core.BuildGMap(eagerSpec(cfg, parts))
	return run(engine, subs, cfg, true, job)
}

// TestEagerMatchesSpec: eager PageRank's pull-plan sweeps give the ranks
// and the run statistics (iteration counts, local synchronizations,
// shuffle volume, simulated time to the bit) that lmap/lreduce through
// core.LocalContext give, on Graph A ÷96 multilevel partitioned into 3 to
// 40 parts, with the partitioner's and the cluster's seed, and with local
// iterations capped.
func TestEagerMatchesSpec(t *testing.T) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(96))
	for _, c := range []struct {
		parts, maxLocal int
		seed            uint64
	}{
		{8, 0, 1}, {8, 0, 2}, {16, 0, 1}, {3, 0, 1}, {40, 0, 1}, {8, 1, 1}, {8, 3, 1},
	} {
		name := fmt.Sprintf("A÷96/%d parts/seed %d/MaxLocalIters %d", c.parts, c.seed, c.maxLocal)
		t.Run(name, func(t *testing.T) {
			a, err := partition.Partition(g, c.parts, partition.Options{Method: partition.Multilevel, Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
			if err != nil {
				t.Fatal(err)
			}
			ec2 := *cluster.EC2LargeCluster()
			ec2.Seed = c.seed
			cfg := DefaultConfig()
			cfg.MaxLocalIters = c.maxLocal
			got, err := Run(mapreduce.NewEngine(cluster.New(&ec2)), subs, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runSpec(mapreduce.NewEngine(cluster.New(&ec2)), subs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want.Ranks {
				if math.Float64bits(got.Ranks[u]) != math.Float64bits(want.Ranks[u]) {
					t.Fatalf("node %d: rank %v, lmap/lreduce %v", u, got.Ranks[u], want.Ranks[u])
				}
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("run statistics differ: %d global and %d local iterations in %v, lmap/lreduce %d and %d in %v",
					got.Stats.GlobalIterations, got.Stats.LocalIterations, got.Stats.Duration,
					want.Stats.GlobalIterations, want.Stats.LocalIterations, want.Stats.Duration)
			}
		})
	}
}
