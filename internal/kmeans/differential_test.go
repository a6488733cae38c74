package kmeans_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on a K-Means seed and fails unless the
// seed covers want. Each test below pins the K-Means seeds that cover the
// property it names (package differential says what each one asserts);
// the comment says what the seed draws.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:kmeans")...)
}

func TestAsyncParallelExecutorMatchesDES(t *testing.T) { check(t, 0x109, "kept", "discarded") } // 2 000 points in 7 parts, noisy EC2, 4 workers
func TestAsyncAdaptiveParity(t *testing.T)             { check(t, 0x63, "moved:aimd:1:16:2") }  // 2 000 points in 2 parts, EC2

func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x2b0, "crash")            // 2 000 points in 6 parts, EC2, aimd
	check(t, 0x279, "crash+checkpoint") // 4 000 points in 8 parts, noisy EC2, aimd, every 2 steps
}

func TestAsyncLiveMatchesDES(t *testing.T) { check(t, 0x45, "live:kmeans") }            // 2 000 points in 6 parts, noisy EC2, S=2, 4 workers
func TestAsyncTraceInert(t *testing.T)     { check(t, 0x258, "trace", "live:kmeans") }  // 4 000 points in 8 parts, HPC, twitchy aimd
func TestAsyncSeriesInert(t *testing.T)    { check(t, 0x138, "series", "live:kmeans") } // 2 000 points in 6 parts, cross-rack, Fixed(1)
