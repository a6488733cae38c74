package adapt

import (
	"strings"
	"testing"
)

// TestFixedIsIdentity: a fixed policy never moves a bound, and every
// negative bound is the one free-running bound -1, so fixed:-5 reports
// the staleness fixed:inf reports.
func TestFixedIsIdentity(t *testing.T) {
	for _, tc := range []struct{ s, want int }{{-1, -1}, {-5, -1}, {0, 0}, {4, 4}} {
		s := tc.s
		c := NewController(Fixed(s), 3)
		if c.Bound(1) != tc.want {
			t.Fatalf("fixed(%d) init bound %d", s, c.Bound(1))
		}
		if c.GateWait(1) || c.StepDone(1, false, 0) || c.StepDone(1, true, 5) {
			t.Fatalf("fixed(%d) changed a bound", s)
		}
		if c.Raises() != 0 || c.Cuts() != 0 {
			t.Fatalf("fixed(%d) counted changes: %d/%d", s, c.Raises(), c.Cuts())
		}
		if c.StalenessMax() != tc.want {
			t.Fatalf("fixed(%d) StalenessMax %d", s, c.StalenessMax())
		}
		if m := c.StalenessMean(); m != float64(tc.want) {
			t.Fatalf("fixed(%d) StalenessMean %g", s, m)
		}
	}
}

func TestAIMDRaisesAndCuts(t *testing.T) {
	pol, err := AIMD(1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(pol, 2)
	// Additive raise per gate wait, saturating at max.
	for i := 0; i < 10; i++ {
		c.GateWait(0)
	}
	if c.Bound(0) != 4 {
		t.Fatalf("bound %d after raises, want saturation at 4", c.Bound(0))
	}
	if c.Raises() != 3 {
		t.Fatalf("raises %d, want 3 (1->2->3->4)", c.Raises())
	}
	// One stalled step is below the threshold; the second cuts.
	if c.StepDone(0, false, 0) {
		t.Fatal("cut below the stall threshold")
	}
	if !c.StepDone(0, false, 0) || c.Bound(0) != 2 {
		t.Fatalf("bound %d after one cut, want 2", c.Bound(0))
	}
	// A publication resets the stall run.
	c.StepDone(0, true, 0)
	if c.StepDone(0, false, 0) {
		t.Fatal("cut immediately after a publication")
	}
	// Repeated stalls halve to lockstep and stop.
	for i := 0; i < 6; i++ {
		c.StepDone(0, false, 0)
	}
	if c.Bound(0) != 0 {
		t.Fatalf("bound %d after sustained stall, want 0", c.Bound(0))
	}
	// Worker 1 is untouched: signals are per-worker.
	if c.Bound(1) != 1 {
		t.Fatalf("worker 1 bound %d, want untouched 1", c.Bound(1))
	}
	if c.StalenessMax() != 4 {
		t.Fatalf("StalenessMax %d, want 4", c.StalenessMax())
	}
}

func TestDriftCapsBoundByLag(t *testing.T) {
	pol, err := Drift(5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(pol, 1)
	if c.Bound(0) != 5 {
		t.Fatalf("init bound %d, want the full budget 5", c.Bound(0))
	}
	c.StepDone(0, true, 3)
	if c.Bound(0) != 2 {
		t.Fatalf("bound %d at lag 3, want 2", c.Bound(0))
	}
	c.StepDone(0, true, 9) // lag beyond the budget floors at lockstep
	if c.Bound(0) != 0 {
		t.Fatalf("bound %d at lag 9, want 0", c.Bound(0))
	}
	c.StepDone(0, true, 0) // caught up: whole budget restored
	if c.Bound(0) != 5 {
		t.Fatalf("bound %d at lag 0, want 5", c.Bound(0))
	}
	if c.GateWait(0) {
		t.Fatal("drift moved a bound on a gate wait")
	}
	if !pol.needsLag() {
		t.Fatal("drift must request the lag signal")
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := AIMD(-1, 4, 1); err == nil {
		t.Fatal("negative aimd start accepted")
	}
	if _, err := AIMD(4, 2, 1); err == nil {
		t.Fatal("aimd max below start accepted")
	}
	if _, err := AIMD(1, 4, 0); err == nil {
		t.Fatal("aimd stall threshold 0 accepted")
	}
	if _, err := Drift(-3); err == nil {
		t.Fatal("negative drift cap accepted")
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, spec := range []string{"fixed:0", "fixed:7", "fixed:inf", "aimd:1:16:2", "aimd:0:3:1", "drift:8", "drift:0"} {
		pol, err := Parse(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if pol.String() != spec {
			t.Fatalf("%q round-tripped to %q", spec, pol.String())
		}
	}
	// Defaults fill in omitted parameters.
	pol, err := Parse("aimd")
	if err != nil {
		t.Fatal(err)
	}
	if pol.String() != "aimd:1:16:2" {
		t.Fatalf("bare aimd parsed to %q", pol.String())
	}
	if pol, err = Parse("drift"); err != nil || pol.String() != "drift:8" {
		t.Fatalf("bare drift parsed to %q (%v)", pol.String(), err)
	}
	for _, bad := range []string{"", "adaptive", "aimd:x", "aimd:1:2:3:4", "drift:-1", "fixed:zz"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("bad policy %q accepted", bad)
		}
	}
}

func TestParseStaleness(t *testing.T) {
	for _, tc := range []struct {
		in   string
		s    int
		name string // policy family; "" = nil policy (static engine path)
	}{
		{"4", 4, ""},
		{"0", 0, ""},
		{"-1", -1, ""},
		{"-5", -1, ""},
		{"inf", -1, ""},
		{"adaptive:aimd", DefaultAIMDStart, "aimd"},
		{"adaptive:drift", DefaultDriftCap, "drift"},
		{"adaptive:aimd:0:3:1", 0, "aimd"},
		{"adaptive:fixed:2", 2, "fixed"},
		{"adaptive:fixed:-5", -1, "fixed"},
		{"adaptive:fixed:inf", -1, "fixed"},
	} {
		s, pol, err := ParseStaleness(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if s != tc.s {
			t.Fatalf("%q: staleness %d, want %d", tc.in, s, tc.s)
		}
		if tc.name == "" && pol != nil {
			t.Fatalf("%q: unexpected policy %v", tc.in, pol)
		}
		if tc.name != "" && (pol == nil || !strings.HasPrefix(pol.String(), tc.name+":")) {
			t.Fatalf("%q: policy %v, want %s", tc.in, pol, tc.name)
		}
	}
	for _, bad := range []string{"", "fast", "adaptive:", "adaptive:warp"} {
		if _, _, err := ParseStaleness(bad); err == nil {
			t.Fatalf("bad staleness %q accepted", bad)
		}
	}
}

func TestControllerTrajectoryAccounting(t *testing.T) {
	pol, err := AIMD(2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(pol, 2)
	c.StepDone(0, true, 0) // samples bound 2
	c.GateWait(0)          // raise to 3
	c.StepDone(0, true, 0) // samples bound 3
	c.StepDone(1, true, 0) // samples bound 2
	if got := c.StalenessMean(); got != (2+3+2)/3.0 {
		t.Fatalf("StalenessMean %g, want %g", got, (2+3+2)/3.0)
	}
	if c.StalenessMax() != 3 {
		t.Fatalf("StalenessMax %d, want 3", c.StalenessMax())
	}
	if c.Raises() != 1 || c.Cuts() != 0 {
		t.Fatalf("raises/cuts %d/%d, want 1/0", c.Raises(), c.Cuts())
	}
}

// FuzzParse: Parse never panics, and every spelling it accepts prints
// through String as one that re-parses to the same policy — same
// spelling, same starting bound. Regressions are committed under
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"fixed:0", "fixed:inf", "fixed:+3", " fixed ", "aimd", "aimd:0:3:1",
		"aimd:1:16:2", "drift", "drift:0", "drift:-1", "aimd:x", "fixed:9223372036854775808", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pol, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(pol.String())
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", spec, pol.String(), err)
		}
		if again != pol || again.String() != pol.String() || again.start() != pol.start() {
			t.Fatalf("%q prints as %q, which re-parses to %q (start %d, want %d)",
				spec, pol.String(), again.String(), again.start(), pol.start())
		}
	})
}
