// Package asynctest holds what the asynchronous runtime's executor-parity
// checks share: which RunStats fields the parity contract exempts
// (ExecutorSpecificStats, SeriesStats) and StatsEqual, which compares the
// rest; the adaptive policies the checks run; and CheckUndo, the
// one-step-undo contract each workload adapter's tests run. The parity
// contract itself — identical virtual-time stats and converged state on
// the DES and the parallel executor, inert tracing and sampling, the live
// executor within its tolerance of the DES — is checked by one seeded
// differential check, package differential: TestDifferential runs its
// pinned seeds, FuzzDifferential any others, and each workload package
// the seeds that cover each property for that workload.
//
// It also holds the delivery property, El-Baz's theorem as a test: Delayed
// hands a workload's Step neighbor versions up to a bounded number of the
// reader's steps late, reordered and repeated, and each workload's
// TestAsyncFixedPointUnderAnyDelivery runs DeliveryRows through RunDelayed
// and checks the answer against its reference. QuietCluster is the
// cluster the workload packages' async tests run on.
package asynctest

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/adapt"
	"repro/internal/async"
)

// ExecutorSpecificStats names the RunStats fields StatsEqual exempts
// from the parity contract: the executor-specific observability
// counters, meaningful only under the parallel or live executor. Every other
// field is a virtual-time quantity and must match across executors —
// StatsEqual compares the struct by reflection, so a field added to
// RunStats is parity-checked by default and an exemption must be
// declared here (and is itself pinned by the field-drift test).
var ExecutorSpecificStats = map[string]bool{
	"Speculated":       true,
	"SpecDiscarded":    true,
	"SpecDepth":        true,
	"LiveComputeTime":  true,
	"LiveSteals":       true,
	"LiveWakes":        true,
	"LiveWakeLateTime": true,
}

// StatsEqual fails the test unless every virtual-time field of the two
// runs matches — including the crash fault model's and the staleness
// controller's counters. Fields listed in ExecutorSpecificStats are
// excluded.
func StatsEqual(t *testing.T, label string, des, par *async.RunStats) {
	t.Helper()
	dv := reflect.ValueOf(*des)
	pv := reflect.ValueOf(*par)
	rt := dv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if ExecutorSpecificStats[f.Name] {
			continue
		}
		if !reflect.DeepEqual(dv.Field(i).Interface(), pv.Field(i).Interface()) {
			t.Fatalf("%s: executors diverged on %s: %v vs %v\nDES:      %+v\nParallel: %+v",
				label, f.Name, dv.Field(i).Interface(), pv.Field(i).Interface(), des, par)
		}
	}
}

// SeriesStats names the RunStats fields that legitimately differ
// between a sampled and an unsampled run of the same configuration:
// the sampling layer's own accounting. The series-inertness comparison
// exempts exactly these; every other field must be bit-identical with
// sampling on or off. Pinned against field drift by the same test as
// ExecutorSpecificStats.
var SeriesStats = map[string]bool{
	"SeriesTicks":   true,
	"SeriesSamples": true,
}

// AdaptivePolicies is the policy axis of the differential check: aimd
// at its default parameters, plus a deliberately twitchy aimd (lockstep
// start, tiny cap, cut after every stalled step) that maximizes mid-run
// bound changes — the hard case for speculation under dynamic S.
func AdaptivePolicies() []adapt.Policy {
	twitchy, err := adapt.AIMD(0, 3, 1)
	if err != nil {
		panic(err)
	}
	return []adapt.Policy{adapt.AIMDDefault(), twitchy}
}

// UndoWorkload is what an adapter hands CheckUndo.
type UndoWorkload[D any] interface {
	async.Undoable[D]
	async.Recoverable[D]
}

// CheckUndo pins the async.Undoable contract on one adapter. Two copies
// of a job (fresh builds one) step through lockstep rounds on what their
// neighbors published up to the round before. Copy b makes each step
// alone. Copy a first does what the parallel executor does to a
// speculation that read stale input — save, step on the version-0
// snapshots, undo — then has its per-step scratch overwritten by poison
// with values no step can use unnoticed, then steps: outcome and every
// field a checkpoint captures (the residual is one) must agree bit for
// bit. One undo buffer serves all partitions in turn, as the executor's
// slots do. With ckpt, a is checkpointed after the rounds and goes on
// alone, through more save-step-undo cycles than any buffer rotation is
// long; restoring must bring it back to where b still is — undo built on
// Checkpoint, whose snapshot has a single holder (async.Recoverable),
// fails here.
func CheckUndo[D any](t *testing.T, fresh func() UndoWorkload[D], poison func(w UndoWorkload[D], p int), ckpt bool) {
	t.Helper()
	const rounds = 4
	a, b := fresh(), fresh()
	first := make([]async.Snapshot[D], a.Parts())
	for p := range first {
		first[p].Part = p
		first[p].Data, _ = a.Init(p)
	}
	last, next := slices.Clone(first), slices.Clone(first)
	read := func(from []async.Snapshot[D], p int) (in []async.Snapshot[D]) {
		for _, q := range a.Neighbors(p) {
			in = append(in, from[q])
		}
		return in
	}
	same := func(p int, when string) {
		t.Helper()
		ca, _ := a.Checkpoint(p)
		cb, _ := b.Checkpoint(p)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("partition %d, %s: state differs from the lone steps'", p, when)
		}
	}
	var buf any
	var ckpts []any
	undone := 0
	for step := 0; step < rounds+3; step++ {
		for p := range first {
			buf = a.SaveUndo(p, buf)
			if out := a.Step(p, step, read(first, p)); out.Publish || !out.Quiescent {
				undone++ // the stale step did something worth undoing
			}
			a.Restore(p, buf)
			poison(a, p)
			got := a.Step(p, step, read(last, p))
			if step >= rounds {
				continue // a goes on alone
			}
			if want := b.Step(p, step, read(last, p)); !reflect.DeepEqual(got, want) {
				t.Fatalf("partition %d step %d: outcome after undo differs from the lone step's", p, step)
			} else if want.Publish {
				next[p].Version, next[p].Data = last[p].Version+1, want.Data
			}
			same(p, "undone and stepped")
		}
		copy(last, next)
		if step == rounds-1 {
			if undone == 0 {
				t.Fatal("no stale step changed anything; the undo was never needed")
			} else if !ckpt {
				return
			}
			for p := range first {
				c, _ := a.Checkpoint(p)
				ckpts = append(ckpts, c)
			}
		}
	}
	for p, c := range ckpts {
		a.Restore(p, c)
		same(p, "checkpoint restored")
	}
}
