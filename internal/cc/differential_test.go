package cc_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on a CC seed and fails unless the
// seed covers want.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:cc")...)
}

// TestAsyncParallelExecutorMatchesDES: the parallel executor reproduces
// the DES's virtual-time stats and labels bit for bit, keeping some
// speculations and discarding others.
func TestAsyncParallelExecutorMatchesDES(t *testing.T) {
	check(t, 0x1c7, "kept", "discarded") // Graph A ÷140 by multilevel, noisy EC2, 4 workers
}

// TestAsyncAdaptiveParity: the same under the adaptive staleness
// controller, which moves a bound mid-run.
func TestAsyncAdaptiveParity(t *testing.T) {
	check(t, 0x2a5, "moved:aimd:0:3:1") // multi-component graph by range, EC2
}

// TestAsyncFixedPolicyIdentity: adapt.Fixed(S) is bit-identical to the
// static bound S.
func TestAsyncFixedPolicyIdentity(t *testing.T) {
	check(t, 0x6a, "fixed") // Fixed(1) on the multi-component graph by hash, cross-rack, live
}

// TestAsyncCrashParity: crashes strike and are recovered, identically on
// both executors, without and with a checkpoint policy.
func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x44, "crash")             // multi-component graph by multilevel, cross-rack, Fixed(0)
	check(t, 0x2bb, "crash+checkpoint") // Graph A ÷140 by multilevel, HPC, aimd, every 3 steps
}

// TestAsyncLiveMatchesDES: the live executor reaches the DES labels
// exactly, within the bound.
func TestAsyncLiveMatchesDES(t *testing.T) {
	check(t, 0x189, "live:cc") // Graph A ÷280 by hash, EC2, S=1, 4 workers
}

// TestAsyncTraceInert: a trace.Recorder changes nothing on the DES and
// the parallel executor, and stamps wall time on the live one.
func TestAsyncTraceInert(t *testing.T) {
	check(t, 0xa, "trace", "live:cc") // multi-component graph by range, cross-rack, aimd
}

// TestAsyncSeriesInert: a metrics.Series changes nothing but its own
// counters, the DES and parallel series are the same bytes, and the live
// series carries wall stamps.
func TestAsyncSeriesInert(t *testing.T) {
	check(t, 0x1b, "series", "live:cc") // multi-component graph by range, cross-rack, Fixed(0)
}
