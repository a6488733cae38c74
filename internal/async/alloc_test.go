//go:build !race

package async

import (
	"testing"
)

// scripted is a ring workload whose every step publishes a payload built
// before the run, for a fixed number of steps: whatever a run allocates,
// the runtime allocated.
type scripted struct {
	parts, steps int
	rows         [][]float64 // row p*(steps+1)+v: partition p's version v
}

func newScripted(parts, steps int) *scripted {
	w := &scripted{parts: parts, steps: steps, rows: make([][]float64, parts*(steps+1))}
	for i := range w.rows {
		w.rows[i] = []float64{float64(i)}
	}
	return w
}

func (w *scripted) Parts() int { return w.parts }
func (w *scripted) Neighbors(p int) []int {
	return []int{(p + w.parts - 1) % w.parts, (p + 1) % w.parts}
}
func (w *scripted) Init(p int) ([]float64, int64) {
	return w.rows[p*(w.steps+1)], 8
}
func (w *scripted) Step(p, step int, inputs []Snapshot[[]float64]) StepOutcome[[]float64] {
	if step >= w.steps {
		return StepOutcome[[]float64]{Ops: 10, Quiescent: true}
	}
	return StepOutcome[[]float64]{Publish: true, Data: w.rows[p*(w.steps+1)+step+1], Bytes: 8, Ops: 10}
}

// Step carries nothing from one call to the next, so there is nothing to
// undo: the parallel executor may speculate the script as it is.
func (w *scripted) SaveUndo(p int, _ any) any { return nil }
func (w *scripted) Restore(p int, _ any)      {}

// TestDESPublishPathAllocFree is an allocation budget (TestAllocBudgets
// at the repository root holds the whole-run ones): a DES step that
// publishes allocates nothing beyond its share of a new history
// segment. It runs the scripted ring
// for N and for 2N steps per partition and charges the difference in
// mallocs to the extra publishes: set-up, which both runs pay, cancels.
// (The race detector allocates on its own; the test is built without it.)
func TestDESPublishPathAllocFree(t *testing.T) {
	publishPathAllocFree(t, Options{Staleness: 2})
}

// TestParallelSpeculatedPathAllocFree holds the speculated path to the
// same budget: dispatch, the pool hand-off, the commit and the discard
// reuse the partition's slot and the executor's undo buffers, so an extra
// step costs what it costs the DES.
func TestParallelSpeculatedPathAllocFree(t *testing.T) {
	publishPathAllocFree(t, Options{Staleness: 2, Executor: Parallel, Workers: 2})
}

func publishPathAllocFree(t *testing.T, opt Options) {
	const (
		parts  = 8
		steps  = 1500
		budget = 0.02 // mallocs per extra publish
	)
	mallocs := func(steps int) float64 {
		w := newScripted(parts, steps)
		return testing.AllocsPerRun(3, func() {
			st, err := Run(quietCluster(), w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Publishes != int64(parts*steps) {
				t.Fatalf("%d publishes, want %d", st.Publishes, parts*steps)
			}
			if opt.Executor == Parallel && (st.Speculated == 0 || st.SpecDiscarded == 0) {
				t.Fatalf("%d speculations kept, %d discarded; want both paths measured", st.Speculated, st.SpecDiscarded)
			}
		})
	}
	short, long := mallocs(steps), mallocs(2*steps)
	per := (long - short) / float64(parts*steps)
	t.Logf("%d steps: %.0f mallocs; %d steps: %.0f mallocs; %.4f per extra publish", steps, short, 2*steps, long, per)
	if per > budget {
		t.Fatalf("%.4f mallocs per extra publish, budget %.2f: the publish path allocates per step", per, budget)
	}
}
