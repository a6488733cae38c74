#!/usr/bin/env sh
# alloc_guard.sh — benchmem regression guard for the async runtime's
# hot paths.
#
# Guards twelve budgets:
#
#   1. The crash-free speculated step path
#      (BenchmarkAsyncParallel/pagerank/parallel, over nine tenths of
#      whose steps are kept speculations and a few discarded ones):
#      after PR 3's scratch-buffer reuse it sits around
#      1.8K allocs/op (see BENCH_PR3.json for the 5.6K pre-change
#      value), and the worker-crash fault model of PR 4 must stay inert
#      on it — its journaling and checkpoint machinery only activates
#      when CrashMTTF or a checkpoint policy is set. Threshold 2500.
#
#   2. The recovery path (BenchmarkAsyncRecovery/mttf=1s: crashes,
#      checkpoints, restore+replay all active): sits around 2.3K
#      allocs/op (BENCH_PR4.json is the pre-recovery baseline).
#      Threshold 3500 keeps the journal/checkpoint bookkeeping from
#      growing a per-step allocation.
#
#   3. The adaptive staleness-control path (BenchmarkAsyncAdaptive/aimd:
#      the per-worker controller changing bounds throughout the run, on
#      the parallel executor): sits around 1.8K allocs/op — the
#      controller adds only run-level state (one Signals slice), never a
#      per-decision allocation. Threshold 2500, same as the crash-free
#      path it rides on.
#
#   4. The K-Means speculated path
#      (BenchmarkAsyncParallel/kmeans/parallel): after PR 7's flat
#      accumulator buffers it sits around 0.9K allocs/op (BENCH_PR7.json
#      records the pre-change ~8.3K). Threshold 2500, the ROADMAP
#      target.
#
#   5. The CC speculated path (BenchmarkAsyncParallel/cc/parallel):
#      around 1.7K allocs/op once the reverse adjacency is CSR and
#      publishes are arena-carved (~240K before PR 7). Threshold 2500.
#
#   6. The three-mode comparison bench (BenchmarkAsyncModesPageRank),
#      whose general/eager legs run the legacy MapReduce engines: around
#      49K allocs/op, nearly all of it building the graph and its
#      partitions, now that the eager runtime is slot-addressed and
#      pooled, PageRank pushes through a static plan and the engine
#      keeps its map-output, shuffle and reduce-output buffers and its
#      groupers in the job's run scratch (62K before PR 15, 0.9M
#      before PR 12, 14.7M before PR 7). Threshold 55000.
#
#   7. The live executor's lockstep path (BenchmarkAsyncLive/pagerank/S=0:
#      real compute on the work-stealing pool, gate/park/wake machinery
#      maximally exercised): around 1.6K allocs/op, all of it run setup
#      (scheduler, store, per-partition state) — the steady-state step
#      path allocates nothing (the pool's zero-alloc dispatch is pinned
#      by TestPoolSteadyStateAllocFree). Live runs are NOT deterministic,
#      so the threshold 3000 carries extra headroom for step-count
#      variance across real interleavings.
#
#   8. The traced speculated path (BenchmarkAsyncTraced/pagerank/parallel:
#      the same workload as row 1 with the event recorder attached,
#      every hook firing into the preallocated ring). Steady-state
#      appends allocate nothing (TestEmitZeroAlloc), so the only extra
#      allocation is the per-run ring itself: ~1.8K allocs/op, within
#      noise of the untraced row. Threshold 2750 — the tentpole's
#      "within ~10% of the trace-off budget" bound.
#
#   9. The sampled speculated path (BenchmarkAsyncSeries/pagerank/parallel:
#      the same workload as row 1 with the time-series sampler attached,
#      every per-tick capture — residuals, staleness occupancy, store
#      versions — firing into the preallocated ring). Samples record by
#      value into the ring, so the only extra allocations are the per-run
#      ring and the residual cache: ~1.8K allocs/op, within noise of the
#      unsampled row. Threshold 2750, mirroring the traced budget.
#
#  10. The warm eager iteration (TestEagerSteadyStateAllocs in
#      internal/pagerank): from the second global iteration on, an eager
#      PageRank job allocates 3 times per map or reduce task — task
#      contexts, counters and stats, none of it in the local runtime.
#      The budget, 8 per task, lives in the test, which also runs in
#      tier 1; it is listed here so the budgets are checked in one
#      place.
#
#  11. The DES step that publishes (TestDESPublishPathAllocFree in
#      internal/async): a ring workload with pre-built payloads run for
#      N and for 2N steps; the extra publishes may cost 0.02 mallocs
#      each — a new history segment and its directory every thousand
#      versions, and nothing per step (one malloc per publish before
#      PR 14). The budget lives in the test, as the tenth does; the test
#      is built without the race detector, which allocates on its own.
#
#  12. The warm general iteration (TestGeneralSteadyStateAllocs in
#      internal/pagerank, beside the tenth and sharing its budget of 8
#      per task; measured 2.2, the eager one 3.0): a reduce task writes
#      into the output buffer its predecessor left in the run scratch.
#      Growing it from nil again costs the logarithm of its length per
#      task per iteration and fails here.
#
# Except for the live row, runs are deterministic, so allocs/op is
# stable across machines; the thresholds leave headroom for runtime/GC
# bookkeeping noise.
#
# Usage: scripts/alloc_guard.sh [max_crashfree_allocs] [max_recovery_allocs] [max_adaptive_allocs] [max_kmeans_allocs] [max_cc_allocs] [max_modes_allocs] [max_live_allocs] [max_traced_allocs] [max_series_allocs]
set -eu

max=${1:-2500}
max_recovery=${2:-3500}
max_adaptive=${3:-2500}
max_kmeans=${4:-2500}
max_cc=${5:-2500}
max_modes=${6:-55000}
max_live=${7:-3000}
max_traced=${8:-2750}
max_series=${9:-2750}
cd "$(dirname "$0")/.."

check() {
	bench=$1
	limit=$2
	out=$(go test -run xxx -bench "$bench" -benchmem -benchtime 3x .)
	echo "$out"
	allocs=$(echo "$out" | awk -v pat="$bench" '$1 ~ pat {
		for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i
	}' | head -n 1)
	if [ -z "$allocs" ]; then
		echo "alloc_guard: benchmark $bench reported no allocs/op" >&2
		exit 1
	fi
	if [ "$allocs" -gt "$limit" ]; then
		echo "alloc_guard: FAIL — $bench: $allocs allocs/op exceeds the committed threshold $limit" >&2
		exit 1
	fi
	echo "alloc_guard: ok — $bench: $allocs allocs/op <= $limit"
}

check 'BenchmarkAsyncParallel/pagerank/parallel' "$max"
check 'BenchmarkAsyncRecovery/mttf=1s' "$max_recovery"
check 'BenchmarkAsyncAdaptive/aimd' "$max_adaptive"
check 'BenchmarkAsyncParallel/kmeans/parallel' "$max_kmeans"
check 'BenchmarkAsyncParallel/cc/parallel' "$max_cc"
check 'BenchmarkAsyncModesPageRank' "$max_modes"
check 'BenchmarkAsyncLive/pagerank/S=0' "$max_live"
check 'BenchmarkAsyncTraced/pagerank/parallel' "$max_traced"
check 'BenchmarkAsyncSeries/pagerank/parallel' "$max_series"

# The budgets that live in a test: it must run (not be skipped or
# filtered out) and pass.
check_test() {
	name=$1
	pkg=$2
	out=$(go test -count 1 -run "^$name\$" -v "$pkg")
	echo "$out"
	case "$out" in
	*"--- PASS: $name"*) echo "alloc_guard: ok — $name" ;;
	*)
		echo "alloc_guard: FAIL — $name did not run and pass" >&2
		exit 1
		;;
	esac
}

check_test TestEagerSteadyStateAllocs ./internal/pagerank/
check_test TestGeneralSteadyStateAllocs ./internal/pagerank/
check_test TestDESPublishPathAllocFree ./internal/async/
