package sssp

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/graph"
)

// inlineSweeps is an asyncWorkload stepped by the body Step had at PR 19:
// the B side of TestStepLockstepAB's timing.
type inlineSweeps struct{ *asyncWorkload }

func (w inlineSweeps) Step(p, step int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	st := w.states[p]
	sub := st.sub
	x := &st.x
	var ops int64

	for r, li := range x.Node {
		cand := inputs[x.Slot[r]].Data[x.Idx[r]] + st.ghostW[r]
		if cand < st.dist[li] {
			st.dist[li] = cand
			st.active[li] = true
		}
	}
	ops += int64(len(x.Node))

	sweeps := 0
	maxSweeps := w.cfg.MaxLocalIters
	if maxSweeps <= 0 {
		maxSweeps = async.DefaultMaxSteps
	}
	frontierLeft := false
	for sweeps < maxSweeps {
		next := st.next[:0]
		for li := range st.active {
			if !st.active[li] {
				continue
			}
			st.active[li] = false
			d := st.dist[li]
			for ei, dst := range sub.OutLocal[li] {
				if nd := d + sub.WLocal[li][ei]; nd < st.dist[dst] {
					st.dist[dst] = nd
					next = append(next, dst)
				}
			}
			ops += int64(len(sub.OutLocal[li]))
		}
		st.next = next
		sweeps++
		if len(next) == 0 {
			break
		}
		for _, li := range next {
			st.active[li] = true
		}
	}
	for li := range st.active {
		if st.active[li] {
			frontierLeft = true
			break
		}
	}

	changed := false
	for bi, li := range x.Border {
		if st.dist[li] < st.lastPub[bi] {
			changed = true
			break
		}
	}
	out := async.StepOutcome[[]float64]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  !frontierLeft,
	}
	if changed {
		pub := make([]float64, len(x.Border))
		for bi, li := range x.Border {
			pub[bi] = st.dist[li]
		}
		copy(st.lastPub, pub)
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 8*int64(len(pub))
	}
	return out
}

// TestStepLockstepAB steps the production workload and the PR 19 body
// side by side on a weighted Graph A / 4 in 16 partitions, ten fresh jobs
// of 20 rounds each from source 0: every outcome and every final distance
// must be bit-equal; the log line is the timing (EXPERIMENTS.md "PR 20").
func TestStepLockstepAB(t *testing.T) {
	if testing.Short() {
		t.Skip("a timing run")
	}
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(4))
	g.AssignUniformWeights(1, 100, 42)
	subs := subgraphs(t, g, 16)
	var all []float64
	for rep := 0; rep < 10; rep++ {
		a, err := buildAsyncWorkload(subs, Config{Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildAsyncWorkload(subs, Config{Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC() // the two builds' garbage is not part of either side's step
		_, overall := asynctest.Lockstep[[]float64](t, a, inlineSweeps{b}, 20)
		for p := range a.states {
			if !slices.Equal(a.states[p].dist, b.states[p].dist) {
				t.Fatalf("partition %d: final distances differ", p)
			}
		}
		all = append(all, overall)
	}
	slices.Sort(all)
	t.Logf("production / PR 19 body, whole run, %d jobs: median %.3f (min %.3f max %.3f)", len(all), all[len(all)/2], all[0], all[len(all)-1])
}
