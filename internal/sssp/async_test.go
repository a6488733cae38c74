package sssp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/graph"
	"repro/internal/minprop"
)

// TestAsyncFixedPointUnderAnyDelivery: distance relaxation is monotone,
// so the asynchronous mode lands on the exact shortest paths under every
// bound and policy, sweep cap and delivery schedule.
func TestAsyncFixedPointUnderAnyDelivery(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	want := dijkstra(g, 0)
	inf := math.Inf(1)
	for _, row := range asynctest.DeliveryRows(async.DefaultMaxSteps, 1, 3) {
		t.Run(row.String(), func(t *testing.T) {
			w, err := minprop.New(subs, row.MaxLocalIters, func(u graph.NodeID) (float64, float64, bool) { return inf, 0, u == 0 })
			if err != nil {
				t.Fatal(err)
			}
			asynctest.RunDelayed[[]float64](t, w, row)
			if got := w.Values(); !slices.Equal(got, want) {
				t.Fatal("distances diverged from Dijkstra's")
			}
		})
	}
}

func TestAsyncMatchesGeneralExactly(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 6)
	gen, err := Run(engine(), subs, Config{Source: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asynctest.QuietCluster(), subs, Config{Source: 3}, async.Options{Staleness: 1})
	if err != nil {
		t.Fatal(err)
	}
	for u := range gen.Dist {
		if gen.Dist[u] != res.Dist[u] {
			t.Fatalf("node %d: general %g async %g", u, gen.Dist[u], res.Dist[u])
		}
	}
}

func TestAsyncDeterministicReplay(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	run := func() *AsyncResult {
		res, err := RunAsync(asynctest.QuietCluster(), subs, Config{Source: 0}, async.Options{Staleness: 0})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Duration != b.Stats.Duration || a.Stats.Steps != b.Stats.Steps ||
		a.Stats.Publishes != b.Stats.Publishes {
		t.Fatalf("replay diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestAsyncFasterThanEager(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	eag, err := Run(engine(), subs, Config{Source: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asynctest.QuietCluster(), subs, Config{Source: 0}, async.Options{Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration >= eag.Stats.Duration {
		t.Fatalf("async %v not faster than eager %v", res.Stats.Duration, eag.Stats.Duration)
	}
}

func TestAsyncValidation(t *testing.T) {
	if _, err := RunAsync(asynctest.QuietCluster(), nil, Config{}, async.Options{}); err == nil {
		t.Fatal("no partitions accepted")
	}
	g := smallGraph()
	subs := subgraphs(t, g, 2)
	if _, err := RunAsync(asynctest.QuietCluster(), subs, Config{Source: -1}, async.Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	unweighted := subgraphs(t, graph.MustGenerate(graph.GraphAConfig().Scaled(1000)), 2)
	if _, err := RunAsync(asynctest.QuietCluster(), unweighted, Config{Source: 0}, async.Options{}); err == nil {
		t.Fatal("unweighted graph accepted")
	}
}
