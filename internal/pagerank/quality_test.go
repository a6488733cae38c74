package pagerank

import (
	"math"
	"testing"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/stats"
)

// TestQualityFloor: the three modes modes_pagerank runs stop within a
// pinned distance of the fixed point, on its shape at test scale: Graph A
// ÷32 (8 750 nodes; the benchmark runs ÷8) in 8 multilevel parts, the
// EC2 preset, seed 1, async at S = 4 on the DES. Each row reports the
// largest rank error against Reference run to 1e-12, and the certified
// bound CertifiedError derives from the run's own ranks, with no
// reference. The bound is tight in the 1-norm it is stated in: the
// 1-norm error is 0.89 of it for general and equals it to 1e-11 for eager
// and async, whose ranks all stop on one side of the fixed point. As a
// bound on one entry it is loose, 100 to 260 times the measured error,
// because the error is spread over every node. Both are pinned with 1.5×
// headroom over what was measured (go1.24.0, amd64):
//
//	mode     error     certified
//	general  4.519e-5  4.976e-3
//	eager    3.474e-5  9.108e-3
//	async    2.164e-5  5.701e-3
//
// A bit-identical change to a mode reads the same table. Tier-1 cost
// 0.15 s on a 2-core host.
func TestQualityFloor(t *testing.T) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(32))
	a, err := partition.Partition(g, 8, partition.Options{Method: partition.Multilevel, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(g, 0.85, 1e-12)
	ec2 := cluster.EC2LargeCluster()
	ec2.Seed = 1
	legacy := func(eager bool) func() ([]float64, bool, error) {
		return func() ([]float64, bool, error) {
			res, err := Run(mapreduce.NewEngine(cluster.New(ec2)), subs, DefaultConfig(), eager)
			if err != nil {
				return nil, false, err
			}
			return res.Ranks, res.Stats.Converged, nil
		}
	}
	for _, row := range []struct {
		mode                 string
		run                  func() ([]float64, bool, error)
		maxError, maxCertify float64
	}{
		{"general", legacy(false), 6.8e-5, 7.5e-3},
		{"eager", legacy(true), 5.2e-5, 1.37e-2},
		{"async", func() ([]float64, bool, error) {
			res, err := RunAsync(cluster.New(ec2), subs, DefaultConfig(), async.Options{Staleness: 4})
			if err != nil {
				return nil, false, err
			}
			return res.Ranks, res.Stats.Converged, nil
		}, 3.3e-5, 8.6e-3},
	} {
		ranks, converged, err := row.run()
		if err != nil {
			t.Fatalf("%s: %v", row.mode, err)
		}
		measured, l1 := stats.InfNormDiff(ranks, want), oneNormDiff(ranks, want)
		certified := CertifiedError(ranks, subs, 0.85)
		t.Logf("%-7s  error %.4g (pinned %.3g)  certified %.4g (pinned %.3g)  1-norm error / certified %.12f",
			row.mode, measured, row.maxError, certified, row.maxCertify, l1/certified)
		if !converged || !(measured <= row.maxError) || !(certified <= row.maxCertify) {
			t.Errorf("%s: converged %v, error %.4g (pinned %.3g), certified bound %.4g (pinned %.3g)",
				row.mode, converged, measured, row.maxError, certified, row.maxCertify)
		}
		// The reference is itself off by about 1e-12 a node.
		if !(l1 <= certified*(1+1e-9)) {
			t.Errorf("%s: 1-norm error %.17g above the certified bound %.17g", row.mode, l1, certified)
		}
	}
}

func oneNormDiff(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}
