package pagerank

import (
	"slices"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/graph"
)

// inlineSweeps is an asyncWorkload whose Step is the production one as it
// stood while both sweep loops were written out inside it: the B side of
// TestStepLockstepAB's timing, and nothing else.
type inlineSweeps struct{ *asyncWorkload }

func (w inlineSweeps) Step(p, step int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	st := w.states[p]
	x := &st.x
	cfg := w.cfg
	var ops int64

	for i := range st.ghost {
		st.ghost[i] = 0
	}
	for r, li := range x.Node {
		st.ghost[li] += inputs[x.Slot[r]].Data[x.Idx[r]]
	}
	ops += int64(len(x.Node))

	sub := st.sub
	rank := st.rank
	n := len(rank)
	ghost, acc, contrib, outDeg := st.ghost[:n], st.acc[:n], st.scratch[:n], sub.OutDeg[:n]
	dst := sub.LocalDst
	src := sub.LocalSrc[:len(dst)]
	for i, r := range rank {
		acc[i] = 0
		contrib[i] = r / float64(outDeg[i])
	}
	sweepOps := int64(len(dst)) + 2*int64(n)
	base := 1 - cfg.Damping
	startDelta := 0.0
	sweeps := 0
	maxSweeps := cfg.MaxLocalIters
	if maxSweeps <= 0 {
		maxSweeps = async.DefaultMaxSteps
	}
	for sweeps < maxSweeps {
		for k, d := range dst {
			acc[d] += contrib[src[k]]
		}
		delta := 0.0
		for i, old := range rank {
			nr := base + cfg.Damping*(acc[i]+ghost[i])
			acc[i] = 0
			d := nr - old
			if d < 0 {
				d = -d
			}
			if d > delta {
				delta = d
			}
			rank[i] = nr
			contrib[i] = nr / float64(outDeg[i])
		}
		ops += sweepOps
		sweeps++
		if delta > startDelta {
			startDelta = delta
		}
		if delta < cfg.LocalEpsilon {
			break
		}
	}

	st.lastDelta = startDelta

	pubEps := cfg.Epsilon * publishFraction
	changed := false
	for bi, li := range x.Border {
		d := contrib[li] - st.lastPub[bi]
		if d < 0 {
			d = -d
		}
		if d > pubEps {
			changed = true
			break
		}
	}
	out := async.StepOutcome[[]float64]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  startDelta < cfg.Epsilon,
	}
	if changed {
		pub := make([]float64, len(x.Border))
		for bi, li := range x.Border {
			pub[bi] = contrib[li]
		}
		st.lastPub = pub
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 8*int64(len(pub))
	}
	return out
}

// TestStepLockstepAB steps the production workload and the inline-loop
// one side by side on Graph A / 4 in 16 partitions: every outcome and
// every final rank must be bit-equal, and the log line is the timing the
// kernels' form was chosen by (DESIGN.md §5b; EXPERIMENTS.md "PR 20").
func TestStepLockstepAB(t *testing.T) {
	if testing.Short() {
		t.Skip("a timing run")
	}
	subs := subgraphs(t, graph.MustGenerate(graph.GraphAConfig().Scaled(4)), 16)
	cfg := DefaultConfig()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	a, _, err := buildAsyncWorkload(subs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := buildAsyncWorkload(subs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratios, overall := asynctest.Lockstep[[]float64](t, a, inlineSweeps{b}, 30)
	for p := range a.states {
		if !sameBits(a.states[p].rank, b.states[p].rank) {
			t.Fatalf("partition %d: final ranks differ", p)
		}
	}
	slices.Sort(ratios)
	t.Logf("kernels / inline loops: %.3f overall; per round min %.3f median %.3f max %.3f", overall, ratios[0], ratios[len(ratios)/2], ratios[len(ratios)-1])
}
