package adapt

import "testing"

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
		if c.GateWait(1) || c.StepDone(1, false) || c.StepDone(1, true) {
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
	if c.StepDone(0, false) {
		t.Fatal("cut below the stall threshold")
	}
	if !c.StepDone(0, false) || c.Bound(0) != 2 {
		t.Fatalf("bound %d after one cut, want 2", c.Bound(0))
	}
	// A publication resets the stall run.
	c.StepDone(0, true)
	if c.StepDone(0, false) {
		t.Fatal("cut immediately after a publication")
	}
	// Repeated stalls halve to lockstep and stop.
	for i := 0; i < 6; i++ {
		c.StepDone(0, false)
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
}

func TestControllerTrajectoryAccounting(t *testing.T) {
	pol, err := AIMD(2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(pol, 2)
	c.StepDone(0, true) // samples bound 2
	c.GateWait(0)       // raise to 3
	c.StepDone(0, true) // samples bound 3
	c.StepDone(1, true) // samples bound 2
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
