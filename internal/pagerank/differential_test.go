package pagerank_test

import (
	"testing"

	"repro/internal/async/asynctest/differential"
)

// check runs the differential check on a PageRank seed and fails unless the
// seed covers want. Each test below pins the PageRank seeds that cover the
// property it names (package differential says what each one asserts);
// the comment says what the seed draws.
func check(t *testing.T, seed uint64, want ...string) {
	t.Helper()
	differential.Check(t, seed, append(want, "workload:pagerank")...)
}

func TestAsyncParallelExecutorMatchesDES(t *testing.T) { check(t, 0x1e9, "kept", "discarded") } // Graph A ÷280 by range in 8 parts, HPC, 4 workers
func TestAsyncAdaptiveParity(t *testing.T)             { check(t, 0x96, "moved:aimd:1:16:2") }  // multi-component graph by range, EC2
func TestAsyncFixedPolicyIdentity(t *testing.T)        { check(t, 0x28d, "fixed") }             // Fixed(4) on the multi-component graph by hash, EC2, live

func TestAsyncCrashParity(t *testing.T) {
	check(t, 0x221, "crash")            // Graph A ÷140 by hash, noisy EC2, aimd
	check(t, 0x23a, "crash+checkpoint") // multi-component graph by range, HPC, every 3 steps
}

func TestAsyncLiveMatchesDES(t *testing.T) { check(t, 0xa0, "live:pagerank") }           // Graph A ÷140 by hash, noisy EC2, S=4
func TestAsyncTraceInert(t *testing.T)     { check(t, 0xf8, "trace", "live:pagerank") }  // multi-component graph by range, HPC, aimd
func TestAsyncSeriesInert(t *testing.T)    { check(t, 0x71, "series", "live:pagerank") } // multi-component graph by range, EC2, twitchy aimd
