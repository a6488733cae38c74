package cc

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
	"repro/internal/graph"
	"repro/internal/partition"
)

// inlineSweeps is an asyncWorkload stepped by the body Step had at PR 19:
// the B side of TestStepLockstepAB's timing.
type inlineSweeps struct{ *asyncWorkload }

func (w inlineSweeps) Step(p, step int, inputs []async.Snapshot[[]graph.NodeID]) async.StepOutcome[[]graph.NodeID] {
	st := w.states[p]
	sub := st.sub
	x := &st.x
	var ops int64
	lowered := 0

	for r, li := range x.Node {
		cand := inputs[x.Slot[r]].Data[x.Idx[r]]
		if cand < st.comp[li] {
			st.comp[li] = cand
			st.active[li] = true
			lowered++
		}
	}
	ops += int64(len(x.Node))

	sweeps := 0
	maxSweeps := w.cfg.MaxLocalIters
	if maxSweeps <= 0 {
		maxSweeps = async.DefaultMaxSteps
	}
	for sweeps < maxSweeps {
		next := st.next[:0]
		for li := range st.active {
			if !st.active[li] {
				continue
			}
			st.active[li] = false
			c := st.comp[li]
			for _, dst := range sub.OutLocal[li] {
				if c < st.comp[dst] {
					st.comp[dst] = c
					next = append(next, dst)
					lowered++
				}
			}
			inLocal := st.inLocalAdj[st.inLocalOff[li]:st.inLocalOff[li+1]]
			for _, src := range inLocal {
				if c < st.comp[src] {
					st.comp[src] = c
					next = append(next, src)
					lowered++
				}
			}
			ops += int64(len(sub.OutLocal[li]) + len(inLocal))
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
	frontierLeft := false
	for li := range st.active {
		if st.active[li] {
			frontierLeft = true
			break
		}
	}
	if m := len(st.comp); m > 0 {
		f := float64(lowered) / float64(m)
		if f > 1 {
			f = 1
		}
		st.lastChanged = f
	}

	changed := false
	for bi, li := range x.Border {
		if st.comp[li] < st.lastPub[bi] {
			changed = true
			break
		}
	}
	out := async.StepOutcome[[]graph.NodeID]{
		Ops:        ops,
		LocalIters: int64(sweeps),
		Quiescent:  !frontierLeft,
	}
	if changed {
		if cap(st.arena)-len(st.arena) < len(x.Border) {
			st.arena = make([]graph.NodeID, 0, 16*len(x.Border))
		}
		lo := len(st.arena)
		st.arena = st.arena[:lo+len(x.Border)]
		pub := st.arena[lo:len(st.arena):len(st.arena)]
		for bi, li := range x.Border {
			pub[bi] = st.comp[li]
		}
		copy(st.lastPub, pub)
		out.Publish = true
		out.Data = pub
		out.Bytes = 16 + 4*int64(len(pub))
	}
	return out
}

// TestStepLockstepAB steps the production workload and the PR 19 body
// side by side on Graph A / 4 in 16 partitions, ten fresh jobs of six
// rounds each: every outcome and every final label must be equal; the log
// line is the timing (EXPERIMENTS.md "PR 20"). Round 0 sweeps every node
// and is most of a run's work; later rounds relax what crossed the cut.
func TestStepLockstepAB(t *testing.T) {
	if testing.Short() {
		t.Skip("a timing run")
	}
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(4))
	asg, err := partition.Partition(g, 16, partition.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, asg.Parts, asg.K)
	if err != nil {
		t.Fatal(err)
	}
	var first, all []float64
	for rep := 0; rep < 10; rep++ {
		a, _, err := buildAsyncWorkload(subs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := buildAsyncWorkload(subs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC() // the two builds' garbage is not part of either side's step
		ratios, overall := asynctest.Lockstep[[]graph.NodeID](t, a, inlineSweeps{b}, 6)
		for p := range a.states {
			if !slices.Equal(a.states[p].comp, b.states[p].comp) {
				t.Fatalf("partition %d: final labels differ", p)
			}
		}
		first = append(first, ratios[0])
		all = append(all, overall)
	}
	slices.Sort(first)
	slices.Sort(all)
	t.Logf("production / PR 19 body, median of %d jobs: round 0 %.3f (min %.3f max %.3f), whole run %.3f (min %.3f max %.3f)",
		len(all), first[len(first)/2], first[0], first[len(first)-1], all[len(all)/2], all[0], all[len(all)-1])
}
