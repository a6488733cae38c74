package sssp

import (
	"testing"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
)

func asyncCluster() *cluster.Cluster {
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	return cluster.New(cfg)
}

// Distance relaxation is monotone, so the asynchronous mode must land on
// the exact shortest paths at every staleness bound.
func TestAsyncMatchesDijkstraAtEveryStaleness(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 8)
	for _, s := range []int{0, 2, async.Unbounded} {
		res, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{Staleness: s})
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if !res.Stats.Converged {
			t.Fatalf("S=%d: not converged", s)
		}
		if s >= 0 && res.Stats.MaxLead > s {
			t.Fatalf("S=%d: staleness bound violated, lead %d", s, res.Stats.MaxLead)
		}
		checkAgainstDijkstra(t, g, res.Dist, 0)
	}
}

func TestAsyncMatchesGeneralExactly(t *testing.T) {
	g := smallGraph()
	subs := subgraphs(t, g, 6)
	gen, err := Run(engine(), subs, Config{Source: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asyncCluster(), subs, Config{Source: 3}, async.Options{Staleness: 1})
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
		res, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{Staleness: 0})
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
	res, err := RunAsync(asyncCluster(), subs, Config{Source: 0}, async.Options{Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration >= eag.Stats.Duration {
		t.Fatalf("async %v not faster than eager %v", res.Stats.Duration, eag.Stats.Duration)
	}
}

func TestAsyncValidation(t *testing.T) {
	if _, err := RunAsync(asyncCluster(), nil, Config{}, async.Options{}); err == nil {
		t.Fatal("no partitions accepted")
	}
	g := smallGraph()
	subs := subgraphs(t, g, 2)
	if _, err := RunAsync(asyncCluster(), subs, Config{Source: -1}, async.Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	unweighted := subgraphs(t, graph.MustGenerate(graph.GraphAConfig().Scaled(1000)), 2)
	if _, err := RunAsync(asyncCluster(), unweighted, Config{Source: 0}, async.Options{}); err == nil {
		t.Fatal("unweighted graph accepted")
	}
}
