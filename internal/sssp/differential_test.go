package sssp_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on an SSSP seed and fails unless the
// seed covers want.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:sssp")...)
}

// TestAsyncParallelExecutorMatchesDES: the parallel executor reproduces
// the DES's virtual-time stats and distances bit for bit, keeping some
// speculations and discarding others.
func TestAsyncParallelExecutorMatchesDES(t *testing.T) {
	check(t, 0x1e5, "kept", "discarded") // Graph A ÷280 by hash in 8 parts, noisy EC2, 4 workers
}

// TestAsyncAdaptiveParity: the same under the adaptive staleness
// controller, which moves a bound mid-run.
func TestAsyncAdaptiveParity(t *testing.T) {
	check(t, 0xf2, "moved:drift:8") // Graph A ÷140 by range, EC2, 4 workers
}

// TestAsyncCrashParity: crashes strike and are recovered, identically on
// both executors, without and with a checkpoint policy.
func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x6f, "crash")             // multi-component graph by hash, noisy EC2, lockstep
	check(t, 0x124, "crash+checkpoint") // Graph A ÷140 by hash, HPC, drift, every 3 steps
}

// TestAsyncLiveMatchesDES: the live executor reaches the DES distances
// exactly, within the bound.
func TestAsyncLiveMatchesDES(t *testing.T) {
	check(t, 0x22b, "live:sssp") // Graph A ÷280 by multilevel in 8 parts, EC2, S=1
}

// TestAsyncTraceInert: a trace.Recorder changes nothing on the DES and
// the parallel executor, and stamps wall time on the live one.
func TestAsyncTraceInert(t *testing.T) {
	check(t, 0xa8, "trace", "live:sssp") // Graph A ÷140 by hash, EC2, aimd
}

// TestAsyncSeriesInert: a metrics.Series changes nothing but its own
// counters, the DES and parallel series are the same bytes, and the live
// series carries wall stamps.
func TestAsyncSeriesInert(t *testing.T) {
	check(t, 0x11c, "series", "live:sssp") // multi-component graph by hash, EC2, twitchy aimd
}
