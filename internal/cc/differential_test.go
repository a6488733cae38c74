package cc_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on a CC seed and fails unless the
// seed covers want. Each test below pins the CC seeds that cover the
// property it names (package differential says what each one asserts);
// the comment says what the seed draws.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:cc")...)
}

func TestAsyncParallelExecutorMatchesDES(t *testing.T) { check(t, 0x1c7, "kept", "discarded") } // Graph A ÷140 by multilevel, noisy EC2, 4 workers
func TestAsyncAdaptiveParity(t *testing.T)             { check(t, 0x2a5, "moved:aimd:0:3:1") }  // multi-component graph by range, EC2
func TestAsyncFixedPolicyIdentity(t *testing.T)        { check(t, 0x6a, "fixed") }              // Fixed(1) on the multi-component graph by hash, cross-rack, live

func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x44, "crash")             // multi-component graph by multilevel, cross-rack, Fixed(0)
	check(t, 0x2bb, "crash+checkpoint") // Graph A ÷140 by multilevel, HPC, aimd, every 3 steps
}

func TestAsyncLiveMatchesDES(t *testing.T) { check(t, 0x189, "live:cc") }          // Graph A ÷280 by hash, EC2, S=1, 4 workers
func TestAsyncTraceInert(t *testing.T)     { check(t, 0xa, "trace", "live:cc") }   // multi-component graph by range, cross-rack, aimd
func TestAsyncSeriesInert(t *testing.T)    { check(t, 0x1b, "series", "live:cc") } // multi-component graph by range, cross-rack, Fixed(0)
