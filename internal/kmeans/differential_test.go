package kmeans_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on a K-Means seed and fails unless
// the seed covers want.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:kmeans")...)
}

// TestAsyncParallelExecutorMatchesDES: the parallel executor reproduces
// the DES's virtual-time stats and centroids bit for bit, keeping some
// speculations and discarding others on the all-to-all exchange.
func TestAsyncParallelExecutorMatchesDES(t *testing.T) {
	check(t, 0x109, "kept", "discarded") // 2 000 points in 7 parts, noisy EC2, 4 workers
}

// TestAsyncAdaptiveParity: the same under the adaptive staleness
// controller, which moves a bound mid-run.
func TestAsyncAdaptiveParity(t *testing.T) {
	check(t, 0x63, "moved:aimd:1:16:2") // 2 000 points in 2 parts, EC2
}

// TestAsyncCrashParity: crashes strike and are recovered, identically on
// both executors, without and with a checkpoint policy.
func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x2b0, "crash")            // 2 000 points in 6 parts, EC2, aimd
	check(t, 0x279, "crash+checkpoint") // 4 000 points in 8 parts, noisy EC2, aimd, every 2 steps
}

// TestAsyncLiveMatchesDES: the live executor settles within 10 % of the
// DES's SSE, within the bound.
func TestAsyncLiveMatchesDES(t *testing.T) {
	check(t, 0x45, "live:kmeans") // 2 000 points in 6 parts, noisy EC2, S=2, 4 workers
}

// TestAsyncTraceInert: a trace.Recorder changes nothing on the DES and
// the parallel executor, and stamps wall time on the live one.
func TestAsyncTraceInert(t *testing.T) {
	check(t, 0x258, "trace", "live:kmeans") // 4 000 points in 8 parts, HPC, twitchy aimd
}

// TestAsyncSeriesInert: a metrics.Series changes nothing but its own
// counters, the DES and parallel series are the same bytes, and the live
// series carries wall stamps.
func TestAsyncSeriesInert(t *testing.T) {
	check(t, 0x138, "series", "live:kmeans") // 2 000 points in 6 parts, cross-rack, Fixed(1)
}
