package cc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/sssp"
)

// TestMonotoneGoldens pins the two monotone workloads, asynchronous SSSP
// (from node 0) and CC, bit for bit on the DES: the pricing of every run
// (duration bits, steps, publishes, pushed bytes, gate waits and the crash
// counters), an FNV-64a hash of the converged state, and the hash of one
// SSSP series CSV. Inputs: Graph A ÷64 in 8 multilevel parts and the
// multi-component graph spread over 8 parts, both weighted; runs at S = 0,
// 4 and ∞ (-1) and one crashy run at S = 4, MTTF a quarter of the clean
// run, with a checkpoint every 2 steps.
func TestMonotoneGoldens(t *testing.T) {
	want := map[string]string{
		"cc/graphA/S=-1":    "dur=0x4029b22999acbada steps=49 pubs=14 bytes=22460 gate=0 crashes=0 recovered=0 lost=0 ckpts=0 state=0xef7d5663156466d5",
		"cc/graphA/S=0":     "dur=0x4029b615df8b295b steps=27 pubs=12 bytes=19096 gate=18 crashes=0 recovered=0 lost=0 ckpts=0 state=0xef7d5663156466d5",
		"cc/graphA/S=4":     "dur=0x4029b22999acbada steps=49 pubs=14 bytes=22460 gate=0 crashes=0 recovered=0 lost=0 ckpts=0 state=0xef7d5663156466d5",
		"cc/graphA/crash":   "dur=0x4030aaafea6a9e98 steps=34 pubs=14 bytes=20936 gate=0 crashes=8 recovered=8 lost=0 ckpts=15 state=0xef7d5663156466d5",
		"cc/multi/S=-1":     "dur=0x4029bfc18aaae2f2 steps=77 pubs=26 bytes=876 gate=0 crashes=0 recovered=0 lost=0 ckpts=0 state=0xd4113145786f96e8",
		"cc/multi/S=0":      "dur=0x4029c7d704b0dd03 steps=47 pubs=26 bytes=872 gate=27 crashes=0 recovered=0 lost=0 ckpts=0 state=0xd4113145786f96e8",
		"cc/multi/S=4":      "dur=0x4029bfc18aaae2f2 steps=77 pubs=26 bytes=876 gate=0 crashes=0 recovered=0 lost=0 ckpts=0 state=0xd4113145786f96e8",
		"cc/multi/crash":    "dur=0x403b3bbf0895ef64 steps=52 pubs=22 bytes=724 gate=0 crashes=17 recovered=17 lost=5 ckpts=24 state=0xd4113145786f96e8",
		"sssp/graphA/S=-1":  "dur=0x4029badaeceb5254 steps=148 pubs=51 bytes=110208 gate=0 crashes=0 recovered=0 lost=0 ckpts=0 state=0x6f86cb60646a8237",
		"sssp/graphA/S=0":   "dur=0x4029d821118783cb steps=68 pubs=34 bytes=69408 gate=83 crashes=0 recovered=0 lost=0 ckpts=0 state=0x6f86cb60646a8237",
		"sssp/graphA/S=4":   "dur=0x4029c4a7ede6dc37 steps=125 pubs=45 bytes=96488 gate=18 crashes=0 recovered=0 lost=0 ckpts=0 state=0x6f86cb60646a8237",
		"sssp/graphA/crash": "dur=0x403720b0c4a0d9a6 steps=60 pubs=36 bytes=73008 gate=1 crashes=12 recovered=12 lost=3 ckpts=26 state=0x6f86cb60646a8237",
		"sssp/multi/S=-1":   "dur=0x4029b82fc51d084e steps=28 pubs=9 bytes=368 gate=0 crashes=0 recovered=0 lost=0 ckpts=0 state=0xfd7c21d2af716cad",
		"sssp/multi/S=0":    "dur=0x4029b94a3cd5dfa4 steps=26 pubs=9 bytes=368 gate=2 crashes=0 recovered=0 lost=0 ckpts=0 state=0xfd7c21d2af716cad",
		"sssp/multi/S=4":    "dur=0x4029b82fc51d084e steps=28 pubs=9 bytes=368 gate=0 crashes=0 recovered=0 lost=0 ckpts=0 state=0xfd7c21d2af716cad",
		"sssp/multi/crash":  "dur=0x403664ca10f46753 steps=29 pubs=9 bytes=368 gate=0 crashes=11 recovered=11 lost=1 ckpts=12 state=0xfd7c21d2af716cad",
	}
	ga, multi := graph.MustGenerate(graph.GraphAConfig().Scaled(64)), multiComponentGraph()
	ga.AssignUniformWeights(1, 100, 42)
	multi.AssignUniformWeights(1, 100, 42)
	a, err := partition.Partition(ga, 8, partition.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gaSubs, err := graph.BuildSubGraphs(ga, a.Parts, a.K)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]*graph.SubGraph{"graphA": gaSubs, "multi": spreadSubgraphs(t, multi, 8)}
	for key, w := range want {
		workload, rest, _ := strings.Cut(key, "/")
		in, run, _ := strings.Cut(rest, "/")
		cfg, opt := cluster.EC2LargeCluster(), async.Options{Staleness: 4}
		if run == "crash" {
			clean, _ := runMonotone(t, workload, inputs[in], cfg, opt)
			cfg.CrashMTTF = clean.Duration / 4
			opt.Checkpoint = recovery.EverySteps(2)
		} else if _, err := fmt.Sscanf(run, "S=%d", &opt.Staleness); err != nil {
			t.Fatal(err)
		}
		st, state := runMonotone(t, workload, inputs[in], cfg, opt)
		h := fnv.New64a()
		if err := binary.Write(h, binary.LittleEndian, state); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("dur=%#x steps=%d pubs=%d bytes=%d gate=%d crashes=%d recovered=%d lost=%d ckpts=%d state=%#x",
			math.Float64bits(float64(st.Duration)), st.Steps, st.Publishes, st.PushedBytes, st.GateWaits,
			st.Crashes, st.Recoveries, st.LostSteps, st.Checkpoints, h.Sum64())
		if got != w {
			t.Errorf("%s:\n got %s\nwant %s", key, got, w)
		}
	}

	opt := async.Options{Staleness: 4}
	clean, _ := runMonotone(t, "sssp", gaSubs, cluster.EC2LargeCluster(), opt)
	opt.Series = metrics.NewSeries(clean.Duration/32, 0)
	runMonotone(t, "sssp", gaSubs, cluster.EC2LargeCluster(), opt)
	h := fnv.New64a()
	if err := opt.Series.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Sum64(), uint64(0x69d53ef459012fe4); got != want {
		t.Errorf("SSSP series CSV hash %#x, want %#x", got, want)
	}
}

// runMonotone runs workload "sssp" or "cc" on subs and returns its stats
// and converged state.
func runMonotone(t *testing.T, workload string, subs []*graph.SubGraph, cfg *cluster.Config, opt async.Options) (*async.RunStats, any) {
	t.Helper()
	if workload == "sssp" {
		r, err := sssp.RunAsync(cluster.New(cfg), subs, sssp.Config{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats, r.Dist
	}
	r, err := RunAsync(cluster.New(cfg), subs, Config{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r.Stats, r.Comp
}
