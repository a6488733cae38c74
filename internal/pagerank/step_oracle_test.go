package pagerank

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/stats"
)

// oracleState is one partition as stepOracle keeps it: every array by
// local index, the exchange plan as graph.BuildExchange returns it, and of
// the pull plan only the order of its positions.
type oracleState struct {
	sub              *graph.SubGraph
	x                graph.Exchange
	rank, ghost      []float64
	scratch, lastPub []float64
	lastDelta        float64
	// in lists every node's local in-neighbours in push order (source
	// ascending, adjacency order), gathered from OutLocal; byPos lists the
	// nodes in Pull.Pos order.
	in    [][]int32
	byPos []int32
}

type oracleWorkload struct {
	cfg    Config
	states []*oracleState
}

func newOracleWorkload(t testing.TB, subs []*graph.SubGraph, cfg Config) *oracleWorkload {
	t.Helper()
	xs, _, err := graph.BuildExchange(subs, false)
	if err != nil {
		t.Fatal(err)
	}
	w := &oracleWorkload{cfg: cfg}
	for p, s := range subs {
		n := s.NumNodes()
		st := &oracleState{sub: s, x: xs[p], rank: make([]float64, n), ghost: make([]float64, n), scratch: make([]float64, n),
			in: make([][]int32, n), byPos: make([]int32, n)}
		for li, adj := range s.OutLocal {
			st.rank[li] = 1
			st.byPos[s.Pull.Pos[li]] = int32(li)
			for _, dst := range adj {
				st.in[dst] = append(st.in[dst], int32(li))
			}
		}
		for _, li := range st.x.Border {
			st.lastPub = append(st.lastPub, 1/float64(s.OutDeg[li]))
		}
		st.lastDelta = 1
		w.states = append(w.states, st)
	}
	return w
}

// stepOracle is the naive model of asyncWorkload.Step: ranks updated in
// place, PullRows nodes at a time in Pull.Pos order, each group's new ranks
// all computed before any of them is written; every new rank sums its
// in-neighbours' rank/outdeg, divided on the spot, in push order; the
// publication scan divides again. Tests compare the production Step
// against it; it is not a second production path.
func stepOracle(w *oracleWorkload, p int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	st := w.states[p]
	cfg := w.cfg
	var ops int64

	for i := range st.ghost {
		st.ghost[i] = 0
	}
	for r := range st.x.Node {
		st.ghost[st.x.Node[r]] += inputs[st.x.Slot[r]].Data[st.x.Idx[r]]
	}
	ops += int64(len(st.x.Node))

	sub := st.sub
	base := 1 - cfg.Damping
	startDelta := 0.0
	sweeps := 0
	for sweeps < cfg.sweepBound() {
		delta := 0.0
		for k := 0; k < len(st.byPos); k += graph.PullRows {
			group := st.byPos[k:min(k+graph.PullRows, len(st.byPos))]
			var next [graph.PullRows]float64
			for j, li := range group {
				sum := 0.0
				for _, src := range st.in[li] {
					sum += st.rank[src] / float64(sub.OutDeg[src])
				}
				next[j] = base + cfg.Damping*(sum+st.ghost[li])
				ops += int64(len(st.in[li]))
			}
			for j, li := range group {
				d := next[j] - st.rank[li]
				if d < 0 {
					d = -d
				}
				if d > delta {
					delta = d
				}
				st.rank[li] = next[j]
			}
		}
		ops += int64(len(sub.Nodes)) * 2
		sweeps++
		if delta > startDelta {
			startDelta = delta
		}
		if delta < cfg.Epsilon {
			break
		}
	}

	st.lastDelta = startDelta

	pubEps := cfg.Epsilon * publishFraction
	changed := false
	for bi, li := range st.x.Border {
		c := st.rank[li] / float64(st.sub.OutDeg[li])
		d := c - st.lastPub[bi]
		if d < 0 {
			d = -d
		}
		if d > pubEps {
			changed = true
		}
		st.scratch[li] = c
	}
	out := async.StepOutcome[[]float64]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  startDelta < cfg.Epsilon,
	}
	if changed {
		pub := make([]float64, len(st.x.Border))
		for bi, li := range st.x.Border {
			pub[bi] = st.scratch[li]
		}
		copy(st.lastPub, pub)
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 8*int64(len(pub))
	}
	return out
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// stepPair holds the same job twice, one workload stepped by the
// production kernel and one by the oracle, and feeds both the same
// neighbour snapshots.
type stepPair struct {
	kernel *asyncWorkload
	oracle *oracleWorkload
	// latest[q] is partition q's last publication, what a lockstep
	// runtime would hand its readers next.
	latest [][]float64
	// amp scales the synthetic disturbance of the snapshots: every value
	// read is latest*(1 + amp*u), u uniform in [-1/2, 1/2) from rng. Zero
	// replays the lockstep run, which converges and falls quiescent; a
	// positive amp keeps every step sweeping and publishing.
	amp float64
	rng *stats.RNG
}

func newStepPair(t testing.TB, subs []*graph.SubGraph, cfg Config, amp float64, seed uint64) *stepPair {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	kernel, _, err := buildAsyncWorkload(subs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := &stepPair{kernel: kernel, oracle: newOracleWorkload(t, subs, cfg), amp: amp, rng: stats.NewRNG(seed)}
	for p := range subs {
		data, _ := kernel.Init(p)
		sp.latest = append(sp.latest, data)
	}
	return sp
}

func (sp *stepPair) inputs(p int) []async.Snapshot[[]float64] {
	nb := sp.kernel.Neighbors(p)
	in := make([]async.Snapshot[[]float64], len(nb))
	for slot, q := range nb {
		data := append([]float64(nil), sp.latest[q]...)
		for i := range data {
			data[i] *= 1 + sp.amp*(sp.rng.Float64()-0.5)
		}
		in[slot] = async.Snapshot[[]float64]{Part: q, Data: data}
	}
	return in
}

// diff names the first quantity in which the kernel's step of partition p
// departed from the oracle's, or returns "".
func (sp *stepPair) diff(p int, got, want async.StepOutcome[[]float64]) string {
	k, o := sp.kernel.states[p], sp.oracle.states[p]
	// The kernel's ranks by local index, and what it keeps at the pull
	// plan's extra positions.
	ranks := make([]float64, len(o.rank))
	for li, r := range k.sub.Pull.Pos {
		ranks[li] = k.rank[r]
	}
	for r := len(ranks); r < len(k.rank); r++ {
		if k.rank[r] != 1-sp.kernel.cfg.Damping || k.ghost[r] != 0 {
			return fmt.Sprintf("extra position %d holds rank %g and ghost %g", r, k.rank[r], k.ghost[r])
		}
	}
	switch {
	case got.Ops != want.Ops:
		return fmt.Sprintf("Ops %d, oracle %d", got.Ops, want.Ops)
	case got.LocalIters != want.LocalIters:
		return fmt.Sprintf("LocalIters %d, oracle %d", got.LocalIters, want.LocalIters)
	case got.Quiescent != want.Quiescent:
		return fmt.Sprintf("Quiescent %v, oracle %v", got.Quiescent, want.Quiescent)
	case got.Publish != want.Publish:
		return fmt.Sprintf("Publish %v, oracle %v", got.Publish, want.Publish)
	case got.Bytes != want.Bytes:
		return fmt.Sprintf("Bytes %d, oracle %d", got.Bytes, want.Bytes)
	case (got.Data == nil) != (want.Data == nil) || !sameBits(got.Data, want.Data):
		return fmt.Sprintf("Data %v, oracle %v", got.Data, want.Data)
	case !sameBits(ranks, o.rank):
		return fmt.Sprintf("rank %v, oracle %v", ranks, o.rank)
	case math.Float64bits(k.lastDelta) != math.Float64bits(o.lastDelta):
		return fmt.Sprintf("lastDelta %g, oracle %g", k.lastDelta, o.lastDelta)
	case !sameBits(k.lastPub, o.lastPub):
		return fmt.Sprintf("lastPub %v, oracle %v", k.lastPub, o.lastPub)
	}
	return ""
}

// step runs one step of partition p through both sides on the same
// snapshots and returns the oracle's outcome and the first difference.
// The kernel's scratch is poisoned first.
func (sp *stepPair) step(p, step int) (async.StepOutcome[[]float64], string) {
	in := sp.inputs(p)
	poisonScratch(sp.kernel.states[p])
	got := sp.kernel.Step(p, step, in)
	want := stepOracle(sp.oracle, p, in)
	if d := sp.diff(p, got, want); d != "" {
		return want, fmt.Sprintf("partition %d step %d: %s", p, step, d)
	}
	if want.Publish {
		sp.latest[p] = want.Data
	}
	return want, ""
}

// poisonScratch fills what a step must rebuild before it reads it, the
// ghost sums, with NaN: a step that read what the last one left there
// would carry it into its ranks.
func poisonScratch(st *asyncState) {
	for i := range st.ghost {
		st.ghost[i] = math.NaN()
	}
}

// stepTally is what a driven run exercised.
type stepTally struct {
	steps, published, quiescent int
	// resumed counts steps after one that ran as many sweeps as the bound
	// allows without falling quiescent: steps that start from its ranks.
	resumed int
}

// run drives every partition through steps [from, to), round robin.
func (sp *stepPair) run(t testing.TB, from, to int) stepTally {
	t.Helper()
	var n stepTally
	bound := int64(sp.oracle.cfg.sweepBound())
	wasCapped := make([]bool, len(sp.kernel.states))
	for s := from; s < to; s++ {
		for p := range sp.kernel.states {
			out, d := sp.step(p, s)
			if d != "" {
				t.Fatal(d)
			}
			n.steps++
			if out.Publish {
				n.published++
			}
			if out.Quiescent {
				n.quiescent++
			}
			if wasCapped[p] {
				n.resumed++
			}
			wasCapped[p] = out.LocalIters == bound && !out.Quiescent
		}
	}
	return n
}

// handBuilt is a three-partition graph holding every shape the kernel's
// inner loop must not mishandle. Partition 0 = {0,1,2,3,4}, partition 1 =
// {5,6}, partition 2 = {7}, a single node.
//
//	0: no out-edges at all (deg 0), but in-edges from 1 and 5
//	1: out-edges 0, 2, 2 (a duplicate), 1 (a self-loop)
//	2: out-edges 5 and 7 only: deg 2, no local edge, on the border
//	3: isolated, neither in- nor out-edges
//	4: out-edges 1 (local) and 6 (remote)
//	5: out-edges 0, 6, 6
//	6: out-edge 5
//	7: out-edges 7 (self-loop in a single-node partition), 2
func handBuilt(t testing.TB) []*graph.SubGraph {
	t.Helper()
	g := &graph.Graph{Out: [][]graph.NodeID{
		{}, {0, 2, 2, 1}, {5, 7}, {}, {1, 6}, {0, 6, 6}, {5}, {7, 2},
	}}
	subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 0, 0, 0, 1, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// star is a hub, node 0, with four leaves and an edge each way to every
// one of them; partition 0 = {0,1,2,3}, partition 1 = {4}. Its local
// solve alternates between hub and leaves and needs far more sweeps than
// AsyncLocalSweeps, so a lockstep run stops steps at the bound and
// resumes them from their ranks.
func star(t testing.TB) []*graph.SubGraph {
	t.Helper()
	g := &graph.Graph{Out: [][]graph.NodeID{{1, 2, 3, 4}, {0}, {0}, {0}, {0}}}
	subs, err := graph.BuildSubGraphs(g, []int32{0, 0, 0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func graphASubs(scale int) func(testing.TB) []*graph.SubGraph {
	return func(t testing.TB) []*graph.SubGraph {
		return subgraphs(t, graph.MustGenerate(graph.GraphAConfig().Scaled(scale)), 8)
	}
}

func TestStepMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		name  string
		subs  func(testing.TB) []*graph.SubGraph
		cap   int     // MaxLocalIters; 0 is AsyncLocalSweeps
		amp   float64 // snapshot disturbance; 0 is the lockstep run
		steps int
	}{
		{"graphA_div35/lockstep", graphASubs(35), 0, 0, 25},
		{"graphA_div35/disturbed", graphASubs(35), 0, 0.5, 5},
		{"graphA_div140/lockstep", graphASubs(140), 0, 0, 25},
		{"graphA_div140/lockstep_full_sweeps", graphASubs(140), async.DefaultMaxSteps, 0, 25},
		{"graphA_div140/disturbed", graphASubs(140), 0, 0.5, 8},
		{"graphA_div140/sweep_cap_2", graphASubs(140), 2, 0.5, 8},
		{"hand_built/lockstep", handBuilt, 0, 0, 25},
		{"hand_built/disturbed", handBuilt, 0, 0.5, 10},
		{"hand_built/sweep_cap_1", handBuilt, 1, 0.5, 10},
		{"star/lockstep", star, 0, 0, 30},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxLocalIters = c.cap
			n := newStepPair(t, c.subs(t), cfg, c.amp, 11).run(t, 0, c.steps)
			t.Logf("%+v", n)
			// A case that never takes a branch of the step does not test it.
			switch {
			case n.published == 0:
				t.Fatal("no step published")
			case c.amp == 0 && (n.published == n.steps || n.quiescent == 0):
				t.Fatal("the lockstep run never held a publication back or never fell quiescent")
			case c.cap != async.DefaultMaxSteps && n.resumed == 0:
				t.Fatal("no step stopped at the sweep bound and was resumed")
			}
		})
	}
}

// TestStepAfterRestoreMatchesOracle pins that the kernel keeps nothing
// from one step to the next beyond what a checkpoint captures: partitions
// checkpointed mid-run, stepped further on snapshots the oracle never
// sees and then restored must go on exactly as the oracle does from the
// checkpointed point. The contributions, which last from step to step, are
// poisoned before Restore, which must rebuild them from the ranks.
func TestStepAfterRestoreMatchesOracle(t *testing.T) {
	for _, build := range []func(testing.TB) []*graph.SubGraph{handBuilt, graphASubs(140)} {
		sp := newStepPair(t, build(t), DefaultConfig(), 0.5, 3)
		sp.run(t, 0, 3)
		ckpts := make([]any, len(sp.kernel.states))
		for p := range ckpts {
			ckpts[p], _ = sp.kernel.Checkpoint(p)
		}
		for s := 3; s < 6; s++ {
			for p := range sp.kernel.states {
				sp.kernel.Step(p, s, sp.inputs(p))
			}
		}
		for p, c := range ckpts {
			st := sp.kernel.states[p]
			for i := range st.contrib {
				st.contrib[i] = math.NaN()
			}
			sp.kernel.Restore(p, c)
		}
		sp.run(t, 3, 6)
	}
}

// TestAsyncRejectsMissingFlatEdgeList: Step prices the sweeps by LocalDst
// and the pull plan is checked against it, so a sub-graph that lists local
// edges in OutLocal but carries no (or a short) flat list must be refused,
// by the eager formulation too, which sweeps and prices the same way.
func TestAsyncRejectsMissingFlatEdgeList(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func(*graph.SubGraph)
	}{
		{"no flat list", func(s *graph.SubGraph) { s.LocalDst = nil }},
		{"short destinations", func(s *graph.SubGraph) { s.LocalDst = s.LocalDst[:len(s.LocalDst)-1] }},
		{"extra edge", func(s *graph.SubGraph) {
			s.LocalDst = append(s.LocalDst[:len(s.LocalDst):len(s.LocalDst)], 0)
		}},
	} {
		subs := handBuilt(t)
		c.mangle(subs[0])
		_, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{})
		if err == nil || !strings.Contains(err.Error(), "flat edge list") {
			t.Fatalf("%s: error %v, want the flat edge list named", c.name, err)
		}
		if _, err := Run(engine(), subs, DefaultConfig(), true); err == nil || !strings.Contains(err.Error(), "flat edge list") {
			t.Fatalf("%s: eager: error %v, want the flat edge list named", c.name, err)
		}
	}
	if _, err := RunAsync(asyncCluster(), handBuilt(t), DefaultConfig(), async.Options{}); err != nil {
		t.Fatalf("intact sub-graphs rejected: %v", err)
	}
	if _, err := Run(engine(), handBuilt(t), DefaultConfig(), true); err != nil {
		t.Fatalf("eager: intact sub-graphs rejected: %v", err)
	}
}

// TestAsyncRejectsMalformedPullPlan: Step sweeps the pull plan only, so a
// hand-built or edited sub-graph whose plan is missing, loses an edge or
// would index out of range is an error naming the partition, not a panic
// or a run without those edges; the eager formulation's local iterations
// sweep it too.
func TestAsyncRejectsMalformedPullPlan(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func(*graph.PullPlan)
	}{
		{"no plan", func(pl *graph.PullPlan) { *pl = graph.PullPlan{} }},
		{"no entries", func(pl *graph.PullPlan) { pl.Src = nil }},
		{"an entry short", func(pl *graph.PullPlan) { pl.Src = pl.Src[:len(pl.Src)-1] }},
		{"an entry dropped", func(pl *graph.PullPlan) {
			pl.Src = pl.Src[:len(pl.Src)-1]
			pl.Start = append(slices.Clone(pl.Start[:len(pl.Start)-1]), int32(len(pl.Src)))
		}},
		{"an edge padded over", func(pl *graph.PullPlan) { pl.Src[0].R2 = int32(len(pl.OutDeg)) }},
		{"slice starts decrease", func(pl *graph.PullPlan) { pl.Start = []int32{0, pl.Start[2] + 1, pl.Start[2]} }},
		{"slice starts past the entries", func(pl *graph.PullPlan) { pl.Start = []int32{0, pl.Start[1], pl.Start[2] + 1} }},
		{"a slice missing", func(pl *graph.PullPlan) { pl.Start = pl.Start[:2] }},
		{"source past the pad", func(pl *graph.PullPlan) { pl.Src[1].R3 = int32(len(pl.OutDeg)) + 1 }},
		{"negative source", func(pl *graph.PullPlan) { pl.Src[0].R0 = -1 }},
		{"node placed outside", func(pl *graph.PullPlan) { pl.Pos[2] = int32(len(pl.Pos)) }},
		{"node placed below zero", func(pl *graph.PullPlan) { pl.Pos[0] = -1 }},
		{"out-degrees short", func(pl *graph.PullPlan) { pl.OutDeg = pl.OutDeg[:len(pl.Pos)] }},
	} {
		subs := handBuilt(t)
		c.mangle(&subs[0].Pull)
		_, err := RunAsync(asyncCluster(), subs, DefaultConfig(), async.Options{})
		if err == nil || !strings.Contains(err.Error(), "partition 0: pull plan") {
			t.Fatalf("%s: error %v, want partition 0's pull plan named", c.name, err)
		}
		if _, err := Run(engine(), subs, DefaultConfig(), true); err == nil || !strings.Contains(err.Error(), "partition 0: pull plan") {
			t.Fatalf("%s: eager: error %v, want partition 0's pull plan named", c.name, err)
		}
	}
}

// FuzzStepMatchesOracle decodes a small graph, an assignment and a
// configuration and runs the oracle comparison over consecutive steps:
// byte 0 the node count, byte 1 the partition count, byte 2 the
// configuration (bits 0-1 the sweep cap: AsyncLocalSweeps, 1, 2, local
// convergence; bit 2 disturbed snapshots; bits 3-5 the step count,
// 2 + 4x), byte 3 the disturbance seed, then one assignment byte per node
// (partitions no node names are closed up), then edges as (source,
// destination) byte pairs. The committed corpus holds
// TestStepMatchesOracle's hand-built shapes one by one and, as pull-*,
// the shapes the pull plan pads for: node counts one, two and three past a multiple of four, a
// one-node partition, a partition without a local edge, nodes without
// in-edges beside a hub wider than all other rows together. stepPair
// poisons the ghost sums before every step.
func FuzzStepMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%24
		k := 1 + int(data[1])%n
		cfg := DefaultConfig()
		cfg.MaxLocalIters = []int{0, 1, 2, async.DefaultMaxSteps}[data[2]&3]
		amp := 0.0
		if data[2]&4 != 0 {
			amp = 0.5
		}
		steps := 2 + 4*int(data[2]>>3&7)
		seed := uint64(data[3])
		data = data[4:]
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
		g := &graph.Graph{Out: make([][]graph.NodeID, n)}
		for len(data) >= 2 {
			u := next() % n
			g.Out[u] = append(g.Out[u], graph.NodeID(next()%n))
		}
		subs, err := graph.BuildSubGraphs(g, parts, k)
		if err != nil {
			t.Fatal(err)
		}
		newStepPair(t, subs, cfg, amp, seed).run(t, 0, steps)
	})
}
