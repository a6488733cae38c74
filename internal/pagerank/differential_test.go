package pagerank_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on a PageRank seed and fails unless
// the seed covers want.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:pagerank")...)
}

// TestAsyncParallelExecutorMatchesDES: the parallel executor reproduces
// the DES's virtual-time stats and ranks bit for bit, keeping some
// speculations and discarding others.
func TestAsyncParallelExecutorMatchesDES(t *testing.T) {
	check(t, 0x1e9, "kept", "discarded") // Graph A ÷280 by range in 8 parts, HPC, 4 workers
}

// TestAsyncAdaptiveParity: the same under the adaptive staleness
// controller, which moves a bound mid-run.
func TestAsyncAdaptiveParity(t *testing.T) {
	check(t, 0x96, "moved:aimd:1:16:2") // multi-component graph by range, EC2
}

// TestAsyncFixedPolicyIdentity: adapt.Fixed(S) is bit-identical to the
// static bound S.
func TestAsyncFixedPolicyIdentity(t *testing.T) {
	check(t, 0x28d, "fixed") // Fixed(4) on the multi-component graph by hash, EC2, live
}

// TestAsyncCrashParity: crashes strike and are recovered, identically on
// both executors, without and with a checkpoint policy.
func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x221, "crash")            // Graph A ÷140 by hash, noisy EC2, drift
	check(t, 0x23a, "crash+checkpoint") // multi-component graph by range, HPC, every 3 steps
}

// TestAsyncLiveMatchesDES: the live executor lands within PageRank's
// convergence tolerance of the DES ranks, and within the bound.
func TestAsyncLiveMatchesDES(t *testing.T) {
	check(t, 0xa0, "live:pagerank") // Graph A ÷140 by hash, noisy EC2, S=4
}

// TestAsyncTraceInert: a trace.Recorder changes nothing on the DES and
// the parallel executor, and stamps wall time on the live one.
func TestAsyncTraceInert(t *testing.T) {
	check(t, 0xf8, "trace", "live:pagerank") // multi-component graph by range, HPC, drift
}

// TestAsyncSeriesInert: a metrics.Series changes nothing but its own
// counters, the DES and parallel series are the same bytes, and the live
// series carries wall stamps.
func TestAsyncSeriesInert(t *testing.T) {
	check(t, 0x71, "series", "live:pagerank") // multi-component graph by range, EC2, twitchy aimd
}
