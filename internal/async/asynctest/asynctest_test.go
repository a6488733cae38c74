package asynctest

import (
	"reflect"
	"testing"

	"repro/internal/async"
)

// TestStatsEqualCoversEveryField pins the parity contract against field
// drift in async.RunStats: every field must be either compared by
// StatsEqual's reflection loop or explicitly exempted in
// ExecutorSpecificStats. A field StatsEqual cannot compare (unexported,
// so Interface() would panic) or a stale exemption naming a field that
// no longer exists fails here, not in a confusing parity-sweep failure.
func TestStatsEqualCoversEveryField(t *testing.T) {
	rt := reflect.TypeOf(async.RunStats{})

	fields := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			t.Errorf("RunStats.%s is unexported: StatsEqual cannot compare it; export it or restructure", f.Name)
			continue
		}
		fields[f.Name] = true
		if ExecutorSpecificStats[f.Name] {
			t.Logf("RunStats.%s: exempt (executor-specific)", f.Name)
		}
	}

	for name := range ExecutorSpecificStats {
		if !fields[name] {
			t.Errorf("ExecutorSpecificStats exempts %q, which is not a RunStats field (stale exemption?)", name)
		}
	}
	// The speculation counters say how the parallel executor ran, not what
	// the run computed: the benchmark's correctness gate compares every
	// field not listed against a DES run, which reports all three as zero.
	for _, name := range []string{"Speculated", "SpecDiscarded", "SpecDepth"} {
		if !ExecutorSpecificStats[name] {
			t.Errorf("RunStats.%s is not exempt: a parallel run could never equal its DES reference", name)
		}
	}

	// SeriesStats (the series-inertness exemptions) is held to the same
	// no-stale-names contract, and must stay disjoint from the parity
	// exemptions: a field cannot be both executor-specific and
	// sampler-accounting.
	for name := range SeriesStats {
		if !fields[name] {
			t.Errorf("SeriesStats exempts %q, which is not a RunStats field (stale exemption?)", name)
		}
		if ExecutorSpecificStats[name] {
			t.Errorf("RunStats.%s is exempted by both SeriesStats and ExecutorSpecificStats", name)
		}
	}
	if len(SeriesStats) == 0 {
		t.Error("SeriesStats is empty; the series-inertness comparison would demand identical sampler counters with sampling off")
	}

	if len(fields) <= len(ExecutorSpecificStats) {
		t.Fatalf("RunStats has %d exported fields but %d are exempt; the parity contract is vacuous",
			len(fields), len(ExecutorSpecificStats))
	}
}

// TestStatsEqualDetectsDivergence drives StatsEqual with two stats
// values differing in exactly one non-exempt field and asserts the
// mismatch is caught, and that exempt-field divergence is ignored.
func TestStatsEqualDetectsDivergence(t *testing.T) {
	base := func() *async.RunStats {
		return &async.RunStats{Converged: true, PerWorkerSteps: []int{3, 4}}
	}

	// Exempt fields may diverge freely.
	a, b := base(), base()
	b.Speculated = 99
	b.SpecDiscarded = 5
	b.SpecDepth = 7
	StatsEqual(t, "exempt-divergence", a, b)

	// A non-exempt field divergence must fail; run it on a throwaway
	// subtest goroutine via t.Run so the Fatalf doesn't kill this test.
	divergent := base()
	divergent.Steps = 123
	caught := !runDetached(func(ft *testing.T) {
		StatsEqual(ft, "steps-divergence", base(), divergent)
	})
	if !caught {
		t.Fatal("StatsEqual accepted runs with divergent Steps")
	}

	// Slice-typed fields are compared deeply.
	sliceDiv := base()
	sliceDiv.PerWorkerSteps = []int{3, 5}
	caught = !runDetached(func(ft *testing.T) {
		StatsEqual(ft, "per-worker-divergence", base(), sliceDiv)
	})
	if !caught {
		t.Fatal("StatsEqual accepted runs with divergent PerWorkerSteps")
	}
}

// runDetached runs fn against a throwaway testing.T on its own
// goroutine (t.Fatalf calls runtime.Goexit, so fn needs one to die on)
// and reports whether fn passed.
func runDetached(fn func(*testing.T)) bool {
	var inner testing.T
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(&inner)
	}()
	<-done
	return !inner.Failed()
}
