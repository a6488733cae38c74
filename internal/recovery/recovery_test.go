package recovery

import (
	"math"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestPlanDeterministicPerWorker(t *testing.T) {
	a := NewPlan(42, 4, 100*simtime.Second)
	b := NewPlan(42, 4, 100*simtime.Second)
	if !a.Enabled() || !b.Enabled() {
		t.Fatal("plans with positive MTTF must be enabled")
	}
	for w := 0; w < 4; w++ {
		at, ok := a.Next(w)
		bt, bok := b.Next(w)
		if !ok || !bok || at != bt {
			t.Fatalf("worker %d: first crash differs across identically seeded plans: %v vs %v", w, at, bt)
		}
		if at <= 0 {
			t.Fatalf("worker %d: crash at %v not strictly after time zero", w, at)
		}
		// Advancing one worker must not disturb another's stream.
		next := a.Advance(w, at)
		if next <= at {
			t.Fatalf("worker %d: next crash %v not after %v", w, next, at)
		}
	}
	// Streams are per worker: advancing worker 0 repeatedly leaves
	// worker 1's schedule exactly where an untouched plan has it.
	c := NewPlan(42, 4, 100*simtime.Second)
	for i := 0; i < 10; i++ {
		at, _ := c.Next(0)
		c.Advance(0, at)
	}
	got, _ := c.Next(1)
	want, _ := NewPlan(42, 4, 100*simtime.Second).Next(1)
	if got != want {
		t.Fatalf("worker 1's schedule moved when worker 0 advanced: %v vs %v", got, want)
	}
}

func TestPlanDisabled(t *testing.T) {
	p := NewPlan(1, 3, 0)
	if p.Enabled() {
		t.Fatal("MTTF=0 plan reports enabled")
	}
	if _, ok := p.Next(0); ok {
		t.Fatal("disabled plan scheduled a crash")
	}
}

func TestPlanMTTFScales(t *testing.T) {
	// Mean first-crash time over many workers must track the MTTF
	// roughly (exponential mean = MTTF).
	const n = 2000
	mean := func(mttf simtime.Duration) float64 {
		p := NewPlan(7, n, mttf)
		var sum float64
		for w := 0; w < n; w++ {
			at, _ := p.Next(w)
			sum += float64(at)
		}
		return sum / n
	}
	m100 := mean(100 * simtime.Second)
	if m100 < 80 || m100 > 120 {
		t.Fatalf("mean first crash %v for MTTF 100s", m100)
	}
	if m10 := mean(10 * simtime.Second); m10 > m100/5 {
		t.Fatalf("MTTF scaling broken: mean %v at 10s vs %v at 100s", m10, m100)
	}
}

func TestPolicies(t *testing.T) {
	if None().Due(1000) {
		t.Fatal("None fired")
	}
	p := EverySteps(4)
	if p.Due(3) || !p.Due(4) || !p.Due(9) {
		t.Fatal("EverySteps(4) misfired")
	}
	var zero Policy
	if zero != None() || EverySteps(0) != None() || EverySteps(-2) != None() {
		t.Fatal("the zero policy and EverySteps(k <= 0) must be None")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "none"}, {"none", "none"},
		{"steps:8", "steps:8"}, {"8", "steps:8"},
	} {
		p, err := ParsePolicy(tc.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", tc.in, err)
		}
		if p.String() != tc.want {
			t.Fatalf("ParsePolicy(%q) = %q, want %q", tc.in, p.String(), tc.want)
		}
	}
	for _, bad := range []string{"steps:0", "steps:x", "interval:5", "interval:2.5", "weekly", "-3"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestLogCommitAndReplay(t *testing.T) {
	var l Log
	l.Commit("v0", 64, 0, []int{1, 2}, []int{0, 3})
	l.Record(0, 1*simtime.Second, 2*simtime.Second)
	l.Record(1, 3*simtime.Second, 4*simtime.Second)
	if l.Lost() != 2 {
		t.Fatalf("Lost = %d", l.Lost())
	}
	if got := l.ReplayCost(); got != 6*simtime.Second {
		t.Fatalf("ReplayCost = %v", got)
	}
	l.Commit("v1", 128, 2, []int{9, 9}, []int{5, 5})
	if l.Lost() != 0 || l.Ckpt.State != "v1" || l.Ckpt.Step != 2 {
		t.Fatalf("commit did not truncate: %+v", l)
	}
	if l.Ckpt.Cursors[0] != 9 || l.Ckpt.Consumed[1] != 5 {
		t.Fatalf("checkpoint bookkeeping not copied: %+v", l.Ckpt)
	}
}

// FuzzParsePolicy: ParsePolicy never panics, every spelling it accepts
// other than none checkpoints eventually, and every one prints through
// String as one that re-parses to the same policy. Regressions are
// committed under testdata/fuzz/FuzzParsePolicy; the interval:SECONDS
// spellings among the inputs must be refused: every K steps is the one
// cadence.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{"", "none", "steps:8", "8", "+8", "interval:2.5", "interval:1e-300",
		"interval:0x1p-3", "steps:", "weekly"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePolicy(spec)
		if err != nil {
			return
		}
		if strings.HasPrefix(strings.TrimSpace(spec), "interval:") {
			t.Fatalf("%q accepted as %q; there is no interval cadence", spec, p.String())
		}
		if p != None() && !p.Due(math.MaxInt) {
			t.Fatalf("%q parses to %q, which never checkpoints", spec, p.String())
		}
		again, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", spec, p.String(), err)
		}
		if again != p {
			t.Fatalf("%q prints as %q, which re-parses to %q", spec, p.String(), again.String())
		}
	})
}
