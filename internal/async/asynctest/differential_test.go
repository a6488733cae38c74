package asynctest_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/async/asynctest"
	"repro/internal/async/asynctest/differential"
	"repro/internal/harness"
	"repro/internal/trace"
)

// pinned are the seeds TestDifferential runs, each with what it draws.
var pinned = []uint64{
	0x88,  // sssp, Graph A ÷280 by multilevel, noisy EC2, aimd moving bounds, crashes with checkpoints, trace and series: every trace kind checked, kept and discarded speculations
	0x2d,  // cc, Graph A ÷140 by bfs, EC2, the twitchy aimd moving bounds, trace and series, live
	0x4e,  // pagerank, Graph A ÷280 by bfs, HPC, Fixed(inf) against S=inf, trace, live
	0xa5,  // kmeans, 4 000 points, cross-rack, lockstep, crashes without checkpoints, trace and series
	0x90,  // pagerank, multi-component graph by hash, HPC, the twitchy aimd moving bounds, crashes with checkpoints, trace and series
	0xd4,  // sssp, Graph A ÷280 by range, EC2, S=inf, series, live
	0x65,  // kmeans, 2 000 points, HPC, the twitchy aimd, trace, live
	0x3e,  // cc, multi-component graph by hash, EC2, S=2, crashes without checkpoints
	0xb1,  // sssp, multi-component graph by multilevel, HPC, live under S=2
	0x11a, // sssp, multi-component graph by hash, HPC, live in lockstep
	0x15,  // kmeans, 2 000 points in 3 parts, HPC, Fixed(1), trace and series, live: on 1 000 points its live leg landed 21.5 % off the DES's SSE
}

// TestDifferential runs the differential check on every pinned seed and
// fails unless the seeds together cover each workload's live leg, kept and
// discarded speculations, the trace kinds (the step and publish ones on
// the live executor too), SSSP's and CC's series residual, crashes with
// and without checkpoints, every adaptive policy moving a bound, the
// Fixed(S) identity, every preset and two partition methods, one of them
// Hash on the multi-component graph.
func TestDifferential(t *testing.T) {
	covered := map[string]bool{}
	for _, seed := range pinned {
		t.Run(fmt.Sprintf("%#x", seed), func(t *testing.T) {
			for c, ok := range differential.Check(t, seed) {
				covered[c] = covered[c] || ok
			}
		})
	}
	want := []string{"kept", "discarded", "crash", "crash+checkpoint", "fixed", "multi:hash", "residual:sssp", "residual:cc"}
	for _, w := range harness.Workloads {
		want = append(want, "live:"+w.Name)
	}
	for _, k := range []trace.Kind{trace.KindStepStart, trace.KindStepEnd, trace.KindPublish,
		trace.KindSpecDispatch, trace.KindSpecCommit, trace.KindSpecInvalidate,
		trace.KindCrash, trace.KindRecovery, trace.KindCheckpoint} {
		want = append(want, "kind:"+k.String())
	}
	for _, k := range []trace.Kind{trace.KindStepStart, trace.KindStepEnd, trace.KindPublish} {
		want = append(want, "live "+k.String())
	}
	for _, pol := range asynctest.AdaptivePolicies() {
		want = append(want, "moved:"+pol.String())
	}
	for _, p := range differential.Presets() {
		want = append(want, "preset:"+p)
	}
	for _, w := range want {
		if !covered[w] {
			t.Errorf("no pinned seed covers %s", w)
		}
	}
	methods := 0
	for c, ok := range covered {
		if ok && strings.HasPrefix(c, "method:") {
			methods++
		}
	}
	if methods < 2 {
		t.Errorf("the pinned seeds partition with %d method(s), want at least 2", methods)
	}
}

// FuzzDifferential runs the differential check on the seeds the fuzzer
// picks.
func FuzzDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) { differential.Check(t, seed) })
}
