package cc

import (
	"reflect"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/minprop"
	"repro/internal/partition"
	"repro/internal/recovery"
)

// multiComponentGraph builds a directed graph with several weakly-
// connected components of different shapes: directed rings (labels must
// propagate against edge direction to close them), chains, a star, and
// isolated nodes.
func multiComponentGraph() *graph.Graph {
	g := &graph.Graph{Out: make([][]graph.NodeID, 40)}
	edge := func(u, v int) { g.Out[u] = append(g.Out[u], graph.NodeID(v)) }
	// Component 0..9: a directed ring.
	for u := 0; u < 10; u++ {
		edge(u, (u+1)%10)
	}
	// Component 10..19: a chain pointing at its smallest node, so the
	// min label must travel backwards along every edge.
	for u := 11; u < 20; u++ {
		edge(u, u-1)
	}
	// Component 20..29: a star out of its largest node.
	for v := 20; v < 29; v++ {
		edge(29, v)
	}
	// Component 30..34: a denser clump with both edge directions.
	edge(30, 31)
	edge(32, 31)
	edge(33, 32)
	edge(30, 34)
	edge(34, 33)
	// Nodes 35..39 stay isolated: singleton components.
	return g
}

// spreadSubgraphs partitions g round-robin so every component straddles
// partitions — the worst case for cross-partition label exchange.
func spreadSubgraphs(t testing.TB, g *graph.Graph, k int) []*graph.SubGraph {
	t.Helper()
	parts := make([]int32, g.NumNodes())
	for u := range parts {
		parts[u] = int32(u % k)
	}
	subs, err := graph.BuildSubGraphs(g, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func TestAsyncMatchesReference(t *testing.T) {
	g := multiComponentGraph()
	want := Reference(g)
	subs := spreadSubgraphs(t, g, 8)
	res, err := RunAsync(asynctest.QuietCluster(), subs, Config{}, async.Options{Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("async cc did not converge")
	}
	if !reflect.DeepEqual(res.Comp, want) {
		t.Fatalf("components diverged from union-find reference:\ngot  %v\nwant %v", res.Comp, want)
	}
	roots := 0
	for u, c := range res.Comp {
		if graph.NodeID(u) == c {
			roots++
		}
	}
	if roots != 9 {
		t.Fatalf("found %d components, want 9 (4 shapes + 5 singletons)", roots)
	}
}

// TestAsyncExactAtAnyStaleness pins the monotonicity argument: like
// SSSP, min-label propagation is exact at every staleness bound,
// including free-running, and under the adaptive policies.
func TestAsyncExactAtAnyStaleness(t *testing.T) {
	g := multiComponentGraph()
	want := Reference(g)
	subs := spreadSubgraphs(t, g, 8)
	opts := []async.Options{
		{Staleness: 0},
		{Staleness: 1},
		{Staleness: async.Unbounded},
	}
	for _, pol := range asynctest.AdaptivePolicies() {
		opts = append(opts, async.Options{Adapt: pol})
	}
	for _, opt := range opts {
		res, err := RunAsync(asynctest.QuietCluster(), subs, Config{}, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if !res.Stats.Converged {
			t.Fatalf("%+v: not converged", opt)
		}
		if !reflect.DeepEqual(res.Comp, want) {
			t.Fatalf("%+v: wrong components", opt)
		}
	}
}

// TestAsyncGeneratedGraph runs cc on the paper's preferential-
// attachment Graph A (scaled), partitioned by the real multilevel
// partitioner, and checks against the union-find reference: the
// integration path the harness uses.
func TestAsyncGeneratedGraph(t *testing.T) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(64))
	a, err := partition.Partition(g, 8, partition.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asynctest.QuietCluster(), subs, Config{}, async.Options{Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Comp, Reference(g)) {
		t.Fatal("components diverged from union-find reference on Graph A")
	}
	if res.Stats.Steps == 0 || res.Stats.Publishes == 0 {
		t.Fatalf("degenerate run: %+v", res.Stats)
	}
}

// TestAsyncLocalIterCap: capping local sweeps leaves residual frontier
// work for later steps but must not change the fixed point.
func TestAsyncLocalIterCap(t *testing.T) {
	g := multiComponentGraph()
	subs := spreadSubgraphs(t, g, 4)
	res, err := RunAsync(asynctest.QuietCluster(), subs, Config{MaxLocalIters: 1}, async.Options{Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Comp, Reference(g)) {
		t.Fatal("sweep cap changed the fixed point")
	}
}

// TestAsyncFixedPointUnderAnyDelivery pins the monotonicity argument:
// like SSSP, min-label propagation reaches the exact components under
// every bound and policy, sweep cap and delivery schedule. The
// multi-component graph is spread over 4 parts, so every label crosses
// partitions. (TestAsyncGeneratedGraph and TestMonotoneGoldens hold
// Graph A in multilevel parts.)
func TestAsyncFixedPointUnderAnyDelivery(t *testing.T) {
	g := multiComponentGraph()
	want := Reference(g)
	subs := spreadSubgraphs(t, g, 4)
	for _, row := range asynctest.DeliveryRows(async.DefaultMaxSteps, 1, 3) {
		t.Run(row.String(), func(t *testing.T) {
			w := labels(t, subs, row.MaxLocalIters)
			asynctest.RunDelayed[[]graph.NodeID](t, w, row)
			if !reflect.DeepEqual(w.Values(), want) {
				t.Fatal("components diverged from the union-find reference")
			}
		})
	}
}

// FuzzDeliveryOrder runs CC free-running on the multi-component graph
// spread over 8 parts, each read delayed by the next fuzz byte mod 9
// reader steps, and requires the exact components.
func FuzzDeliveryOrder(f *testing.F) {
	g := multiComponentGraph()
	want := Reference(g)
	subs := spreadSubgraphs(f, g, 8)
	f.Fuzz(func(t *testing.T, delays []byte) {
		w := labels(t, subs, 0)
		reads := 0
		delay := func(int, int, int) int {
			if len(delays) == 0 {
				return 0
			}
			d := delays[reads%len(delays)]
			reads++
			return int(d % 9)
		}
		st, err := async.Run(asynctest.QuietCluster(), asynctest.Delay(w, delay), async.Options{Staleness: async.Unbounded})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged || !reflect.DeepEqual(w.Values(), want) {
			t.Fatalf("converged %v; components %v, want %v", st.Converged, w.Values(), want)
		}
	})
}

// labels builds the workload RunAsync runs.
func labels(t *testing.T, subs []*graph.SubGraph, maxLocalIters int) *minprop.Workload[graph.NodeID] {
	w, err := minprop.New(subs, maxLocalIters, func(u graph.NodeID) (graph.NodeID, graph.NodeID, bool) { return u, u, true })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAsyncCrashRecoveryExact: crashes forced into the stepping phase
// must leave the component assignment exact — recovery is visible only
// in time.
func TestAsyncCrashRecoveryExact(t *testing.T) {
	g := multiComponentGraph()
	subs := spreadSubgraphs(t, g, 8)
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	clean, err := RunAsync(cluster.New(cfg), subs, Config{}, async.Options{Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	crashy := *cfg
	crashy.CrashMTTF = clean.Stats.Duration / 4
	res, err := RunAsync(cluster.New(&crashy), subs, Config{},
		async.Options{Staleness: 2, Checkpoint: recovery.EverySteps(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Crashes == 0 {
		t.Fatalf("no crashes at MTTF %v", crashy.CrashMTTF)
	}
	if !reflect.DeepEqual(res.Comp, Reference(g)) {
		t.Fatal("crashy run diverged from the reference components")
	}
}

func TestAsyncValidation(t *testing.T) {
	if _, err := RunAsync(asynctest.QuietCluster(), nil, Config{}, async.Options{}); err == nil {
		t.Fatal("no partitions accepted")
	}
}

func TestReferenceLabelsAreComponentMinima(t *testing.T) {
	g := multiComponentGraph()
	comp := Reference(g)
	for u, c := range comp {
		if c > graph.NodeID(u) {
			t.Fatalf("node %d labelled %d > its own id", u, c)
		}
		if comp[c] != c {
			t.Fatalf("representative %d of node %d is not its own representative", c, u)
		}
	}
}
