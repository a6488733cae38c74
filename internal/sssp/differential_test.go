package sssp_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on a SSSP seed and fails unless the
// seed covers want. Each test below pins the SSSP seeds that cover the
// property it names (package differential says what each one asserts);
// the comment says what the seed draws.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:sssp")...)
}

func TestAsyncParallelExecutorMatchesDES(t *testing.T) { check(t, 0x1e5, "kept", "discarded") } // Graph A ÷280 by hash in 8 parts, noisy EC2, 4 workers
func TestAsyncAdaptiveParity(t *testing.T)             { check(t, 0xf2, "moved:drift:8") }      // Graph A ÷140 by range, EC2, 4 workers

func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x6f, "crash")             // multi-component graph by hash, noisy EC2, lockstep
	check(t, 0x124, "crash+checkpoint") // Graph A ÷140 by hash, HPC, drift, every 3 steps
}

func TestAsyncLiveMatchesDES(t *testing.T) { check(t, 0x22b, "live:sssp") }           // Graph A ÷280 by multilevel in 8 parts, EC2, S=1
func TestAsyncTraceInert(t *testing.T)     { check(t, 0xa8, "trace", "live:sssp") }   // Graph A ÷140 by hash, EC2, aimd
func TestAsyncSeriesInert(t *testing.T)    { check(t, 0x11c, "series", "live:sssp") } // multi-component graph by hash, EC2, twitchy aimd
