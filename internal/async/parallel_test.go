package async

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// statsEqual compares every field of two runs but the speculation
// counters, which say how the parallel executor ran, not what the run
// computed. (asynctest.StatsEqual says the same for the workloads; this
// package cannot import it.)
func statsEqual(t *testing.T, label string, des, par *RunStats) {
	t.Helper()
	p := *par
	p.Speculated, p.SpecDiscarded, p.SpecDepth = des.Speculated, des.SpecDiscarded, des.SpecDepth
	if !reflect.DeepEqual(*des, p) {
		t.Fatalf("%s: runs diverged:\n%+v\n%+v", label, des, par)
	}
}

// parityClusters are the cost models the executor parity contract runs
// on: the noisy cloud testbed (stochastic draw order), the cross-rack
// variant, and the HPC interconnect, whose microsecond publish latency
// makes a speculated step's inputs stale most often.
func parityClusters() []*cluster.Config {
	noisy := cluster.EC2LargeCluster()
	noisy.FailureProb = 0.05
	noisy.StragglerJitter = 0.2
	return []*cluster.Config{noisy, cluster.EC2CrossRackCluster(), cluster.HPCCluster()}
}

// TestParallelMatchesDES is the determinism parity contract: the
// parallel executor must produce identical virtual-time metrics and
// identical converged workload state to the sequential DES, at lockstep,
// intermediate, and unbounded staleness, on every preset the executor
// targets. Run under -race it also proves the speculative pool is
// data-race-free.
func TestParallelMatchesDES(t *testing.T) {
	hetero := func(p int) int64 { return int64(1e4 * (1 + p)) }
	for _, cfg := range parityClusters() {
		for _, s := range []int{0, 2, Unbounded} {
			run := func(ex Executor) ([]int64, *RunStats) {
				vals := make([]int64, 6)
				for p := range vals {
					// Distinct per-partition values exercise propagation.
					vals[p] = int64((p*7)%11 + 1)
				}
				w := maxProp(vals)
				stats, err := Run(cluster.New(cfg), w, Options{Staleness: s, Executor: ex})
				if err != nil {
					t.Fatalf("%s S=%d %v: %v", cfg.Name, s, ex, err)
				}
				return vals, stats
			}
			desVals, desStats := run(DES)
			parVals, parStats := run(Parallel)
			statsEqual(t, cfg.Name+"/maxProp", desStats, parStats)
			if !reflect.DeepEqual(desVals, parVals) {
				t.Fatalf("%s S=%d: converged state diverged: %v vs %v", cfg.Name, s, desVals, parVals)
			}

			runCounter := func(ex Executor) *RunStats {
				stats, err := Run(cluster.New(cfg), counter(5, 30, hetero), Options{Staleness: s, Executor: ex})
				if err != nil {
					t.Fatalf("%s S=%d %v: %v", cfg.Name, s, ex, err)
				}
				return stats
			}
			statsEqual(t, cfg.Name+"/counter", runCounter(DES), runCounter(Parallel))
		}
	}
}

// TestParallelSpeculates: with several same-speed workers, the executor
// must actually dispatch concurrent steps — a parallel executor that
// never speculates (or only ever pre-executes the imminent head event,
// SpecDepth 1) is just a slower DES.
func TestParallelSpeculates(t *testing.T) {
	uniform := func(int) int64 { return 1e5 }
	stats, err := Run(quietCluster(), counter(8, 25, uniform), Options{Staleness: 2, Executor: Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Speculated == 0 {
		t.Fatal("parallel executor never pre-executed a step")
	}
	if stats.Speculated > stats.Steps {
		t.Fatalf("speculated %d of %d steps", stats.Speculated, stats.Steps)
	}
	if stats.SpecDepth < 2 {
		t.Fatalf("speculation depth %d: steps never overlapped", stats.SpecDepth)
	}
	// DES never speculates.
	stats, err = Run(quietCluster(), counter(8, 25, uniform), Options{Staleness: 2, Executor: DES})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Speculated != 0 || stats.SpecDepth != 0 {
		t.Fatalf("DES reported %d speculated steps at depth %d", stats.Speculated, stats.SpecDepth)
	}
}

// TestParallelSpeculationDepthHPC: how many steps are in flight is a
// matter of the pool size, not of the cost model. On a cluster whose
// publish latency is microseconds (HPC preset) a rule that waits for a
// step's inputs to be provably final can only ever dispatch the head
// event (depth ~1); validated speculation keeps the window full there as
// on EC2. Measured with four pool goroutines (window 12) on this ring of
// eight: depth 8 on both presets, 24 of 208 steps discarded on HPC, 7 of
// 213 on EC2.
func TestParallelSpeculationDepthHPC(t *testing.T) {
	uniform := func(int) int64 { return 1e6 }
	depth := func(cfg *cluster.Config) int {
		stats, err := Run(cluster.New(cfg), counter(8, 25, uniform), Options{Staleness: 4, Executor: Parallel, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return stats.SpecDepth
	}
	if hpc, ec2 := depth(cluster.HPCCluster()), depth(cluster.EC2LargeCluster()); hpc < ec2/2 || hpc < 4 {
		t.Fatalf("speculation depth collapsed on the HPC preset: hpc=%d ec2=%d", hpc, ec2)
	}
}

// TestParallelStepConcurrencyContract: a partition's Step calls never
// overlap each other and always arrive in step order, even under the
// speculative pool — the per-partition serialization the Workload
// contract promises. (That cross-partition steps genuinely overlap in
// wall time is asserted separately by TestParallelOverlapScales, which
// does not depend on preemption timing.)
func TestParallelStepConcurrencyContract(t *testing.T) {
	const parts = 8
	var inFlight [parts]atomic.Int32
	var lastStep [parts]atomic.Int32
	cnt := make([]int64, parts)
	w := &toy{
		parts:     parts,
		neighbors: ring(parts),
		state:     cnt,
		init:      func(p int) (int64, int64) { return 0, 1 << 10 },
		step: func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			if inFlight[p].Add(1) != 1 {
				t.Errorf("partition %d stepped concurrently with itself", p)
			}
			// In step order, except that a discarded speculation's step
			// comes round once more.
			if last := lastStep[p].Load(); int32(step) != last && int32(step) != last-1 {
				t.Errorf("partition %d ran step %d after %d", p, step, last-1)
			}
			lastStep[p].Store(int32(step) + 1)
			for i := 0; i < 2000; i++ { // linger to widen any overlap window
				_ = i
			}
			inFlight[p].Add(-1)
			if cnt[p] >= 20 {
				return StepOutcome[int64]{Ops: 1, LocalIters: 1, Quiescent: true}
			}
			cnt[p]++
			return StepOutcome[int64]{
				Publish: true, Data: cnt[p], Bytes: 8, Ops: 1e5,
				LocalIters: 1, Quiescent: cnt[p] >= 20,
			}
		},
	}
	stats, err := Run(quietCluster(), w, Options{Staleness: 4, Executor: Parallel, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("not converged")
	}
	if stats.Speculated == 0 {
		t.Fatal("pool never exercised: no step was speculated")
	}
}

// sleepToy builds a workload whose steps block for a fixed real
// duration. Sleeps overlap even on a single hardware thread, so this
// measures the executor's step concurrency independently of the
// machine's core count (CPU-bound scaling on real cores is what
// BenchmarkAsyncParallel at the repo root measures).
func sleepToy(n, target int, d time.Duration) *toy {
	cnt := make([]int64, n)
	return &toy{
		parts:     n,
		neighbors: ring(n),
		state:     cnt,
		init:      func(p int) (int64, int64) { return 0, 1 << 10 },
		step: func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			time.Sleep(d)
			if cnt[p] >= int64(target) {
				return StepOutcome[int64]{Ops: 1, LocalIters: 1, Quiescent: true}
			}
			cnt[p]++
			return StepOutcome[int64]{
				Publish: true, Data: cnt[p], Bytes: 8, Ops: 2e5,
				LocalIters: 1, Quiescent: cnt[p] >= int64(target),
			}
		},
	}
}

// TestParallelOverlapScales: the point of the parallel executor is that
// worker steps overlap in wall-clock time. With 16 uniform workers whose
// steps each block 500µs, the DES needs >= steps x 500µs of wall time by
// construction; the parallel executor must overlap enough of them to
// beat it by a wide margin. (Thresholds are loose — 2x where ~4x is
// expected at 4 workers — to keep the test robust on loaded machines.)
func TestParallelOverlapScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	run := func(ex Executor, workers int) (time.Duration, *RunStats) {
		start := time.Now()
		stats, err := Run(quietCluster(), sleepToy(16, 40, 500*time.Microsecond),
			Options{Staleness: 4, Executor: ex, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), stats
	}
	desWall, desStats := run(DES, 0)
	parWall, parStats := run(Parallel, 4)
	if desStats.Duration != parStats.Duration || desStats.Steps != parStats.Steps {
		t.Fatalf("executors diverged: %+v vs %+v", desStats, parStats)
	}
	if parWall*2 >= desWall {
		t.Fatalf("parallel executor did not overlap steps: DES %v, parallel(4) %v", desWall, parWall)
	}
}

// TestParallelOverlapHPC is the wall-clock half of
// TestParallelSpeculationDepthHPC: on the HPC preset a publication is
// visible ~36µs after the step that made it — far below the inter-event
// spacing — so more speculations read stale input and are rerun inline.
// Enough must still commit for real overlap: the same blocking-step
// workload must beat the DES by 2x there too.
func TestParallelOverlapHPC(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	run := func(ex Executor, workers int) (time.Duration, *RunStats) {
		start := time.Now()
		stats, err := Run(cluster.New(cluster.HPCCluster()), sleepToy(16, 40, 500*time.Microsecond),
			Options{Staleness: 4, Executor: ex, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), stats
	}
	desWall, desStats := run(DES, 0)
	parWall, parStats := run(Parallel, 4)
	if desStats.Duration != parStats.Duration || desStats.Steps != parStats.Steps {
		t.Fatalf("executors diverged: %+v vs %+v", desStats, parStats)
	}
	if parWall*2 >= desWall {
		t.Fatalf("no overlap on the HPC preset: DES %v, parallel(4) %v (depth %d, %d of %d steps discarded)",
			desWall, parWall, parStats.SpecDepth, parStats.SpecDiscarded, parStats.Steps)
	}
}

// TestParallelWorkloadValidation: the parallel path surfaces the same
// construction and step errors as the DES.
func TestParallelWorkloadValidation(t *testing.T) {
	if _, err := Run(quietCluster(), &toy{parts: 0}, Options{Executor: Parallel}); err == nil {
		t.Fatal("zero partitions accepted")
	}
	panicky := maxProp([]int64{1, 2})
	panicky.step = func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
		panic("boom")
	}
	if _, err := Run(quietCluster(), panicky, Options{Executor: Parallel}); err == nil {
		t.Fatal("step panic not converted to error")
	}
	if _, err := Run(quietCluster(), maxProp([]int64{1, 2}), Options{Executor: Executor(99)}); err == nil {
		t.Fatal("unknown executor accepted")
	}
}

// TestParallelWorkerCap: explicit worker counts (including 1) are valid
// and preserve results.
func TestParallelWorkerCap(t *testing.T) {
	uniform := func(int) int64 { return 1e5 }
	var base *RunStats
	for _, workers := range []int{1, 2, 16} {
		stats, err := Run(quietCluster(), counter(6, 25, uniform),
			Options{Staleness: 1, Executor: Parallel, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = stats
		} else if stats.Duration != base.Duration || stats.Steps != base.Steps {
			t.Fatalf("workers=%d changed results: %+v vs %+v", workers, stats, base)
		}
	}
}

// plain hides whatever else a workload implements: the parallel executor
// sees a Workload and nothing more.
type plain struct{ Workload[int64] }

// TestParallelWithoutUndoRunsInline: a workload that cannot take a step
// back is never speculated — there is no second, proof-based admission
// path — and still runs to the DES's result.
func TestParallelWithoutUndoRunsInline(t *testing.T) {
	uniform := func(int) int64 { return 1e5 }
	des, err := Run(quietCluster(), counter(6, 25, uniform), Options{Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(quietCluster(), plain{counter(6, 25, uniform)}, Options{Staleness: 2, Executor: Parallel})
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "plain", des, par)
	if par.Speculated != 0 || par.SpecDiscarded != 0 || par.SpecDepth != 0 {
		t.Fatalf("a workload without undo was speculated: %+v", par)
	}
}

// TestParallelSpeculationDeterministic: what is dispatched, kept and
// discarded is decided from virtual-time state, so the counters repeat
// run for run whatever the pool's timing was (CI runs this at -cpu 1,4
// under the race detector, which perturbs it plenty).
func TestParallelSpeculationDeterministic(t *testing.T) {
	hetero := func(p int) int64 { return int64(1e4 * (1 + p)) }
	var first *RunStats
	for i := 0; i < 5; i++ {
		st, err := Run(cluster.New(cluster.HPCCluster()), counter(8, 30, hetero),
			Options{Staleness: 2, Executor: Parallel, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = st
			if st.Speculated == 0 || st.SpecDiscarded == 0 {
				t.Fatalf("want both outcomes in the run, got %d kept, %d discarded", st.Speculated, st.SpecDiscarded)
			}
		} else if st.Speculated != first.Speculated || st.SpecDiscarded != first.SpecDiscarded || st.SpecDepth != first.SpecDepth {
			t.Fatalf("run %d: kept/discarded/depth %d/%d/%d, first run %d/%d/%d", i,
				st.Speculated, st.SpecDiscarded, st.SpecDepth, first.Speculated, first.SpecDiscarded, first.SpecDepth)
		}
	}
}

// chain builds a toy over explicit neighbor lists. A partition with a
// bigger input starts later, which is how the discard cases order their
// events; state is the steps' whole cross-step state.
func chain(nbrs [][]int, inputBytes, state []int64, step func(p, step int, in []Snapshot[int64]) StepOutcome[int64]) *toy {
	return &toy{
		parts:     len(nbrs),
		neighbors: func(p int) []int { return nbrs[p] },
		state:     state,
		init:      func(p int) (int64, int64) { return state[p], inputBytes[p] },
		step:      step,
	}
}

// adopt is the max-propagation step over state: publish on change, then
// rest.
func adopt(state []int64, p int, in []Snapshot[int64], ops int64) StepOutcome[int64] {
	changed := false
	for _, s := range in {
		if s.Data > state[p] {
			state[p], changed = s.Data, true
		}
	}
	return StepOutcome[int64]{Publish: changed, Data: state[p], Bytes: 8, Ops: ops, LocalIters: 1, Quiescent: true}
}

// TestParallelDiscards covers what can become of a speculation other than
// being committed as it is. Every case that runs to the end must leave
// the DES's state and stats behind.
func TestParallelDiscards(t *testing.T) {
	const late = 1 << 30 // input bytes: starts seconds after a 1 KB partition
	kinds := func(rec *trace.Recorder, part int, kind trace.Kind) (evs []trace.Event) {
		for _, e := range rec.Events() {
			if int(e.Part) == part && e.Kind == kind {
				evs = append(evs, e)
			}
		}
		return evs
	}

	// Partition 1 reads partition 0 and starts long after 0's first
	// publication is visible, but its step 0 is dispatched beside 0's, at
	// the first Admit, on version 0: stale, and the step says so by
	// panicking. The panic must go with the discard.
	t.Run("stale input, its panic discarded with it", func(t *testing.T) {
		run := func(ex Executor) ([]int64, *RunStats) {
			state := []int64{3, 1}
			w := chain([][]int{{}, {0}}, []int64{1 << 10, late}, state,
				func(p, step int, in []Snapshot[int64]) StepOutcome[int64] {
					if p == 0 && step == 0 {
						state[0] = 9
						return StepOutcome[int64]{Publish: true, Data: 9, Bytes: 8, Ops: 10, LocalIters: 1, Quiescent: true}
					}
					if p == 1 && in[0].Version == 0 {
						state[1] = -1
						panic("stepped on stale input")
					}
					return adopt(state, p, in, 10)
				})
			st, err := Run(quietCluster(), w, Options{Staleness: Unbounded, Executor: ex, Workers: 2})
			if err != nil {
				t.Fatalf("%v: %v", ex, err)
			}
			return state, st
		}
		desState, des := run(DES)
		parState, par := run(Parallel)
		statsEqual(t, "stale", des, par)
		if !reflect.DeepEqual(desState, parState) || parState[1] != 9 {
			t.Fatalf("state %v, DES %v", parState, desState)
		}
		if par.SpecDiscarded != 1 {
			t.Fatalf("%d speculations discarded, want partition 1's step 0", par.SpecDiscarded)
		}
	})

	// A speculation discarded before the pool has started it. The one pool
	// goroutine (Workers 1, a window of three) takes partition 1's step 0,
	// 0's step 0 and 2's, which holds it for 50 ms; 1's step 1 is queued
	// behind that on version 0 of partition 0. 0's event comes before it
	// and publishes version 1, visible by then, so 1's event finds its
	// speculation stale while it still waits in the queue. It must run,
	// be undone and rerun inline on the canonical inputs.
	t.Run("queued behind a busy pool goroutine", func(t *testing.T) {
		c := quietCluster()
		gap := c.DFSReadCost(late, true) - c.DFSReadCost(1<<10, true) // 2 starts this long after 1
		rate := c.Config().ComputeRate
		run := func(ex Executor) ([]int64, *RunStats, int32) {
			state := []int64{3, 1, 0}
			var stale atomic.Int32
			w := chain([][]int{{}, {0}, {}}, []int64{1 << 20, 1 << 10, late}, state,
				func(p, step int, in []Snapshot[int64]) StepOutcome[int64] {
					switch {
					case p == 0:
						state[0] = 9
						return StepOutcome[int64]{Publish: true, Data: 9, Bytes: 8, Ops: 10, LocalIters: 1, Quiescent: true}
					case p == 2:
						time.Sleep(50 * time.Millisecond)
						return StepOutcome[int64]{Ops: 10, LocalIters: 1, Quiescent: true}
					case step == 0: // busy until well after 0's publication is visible, long before 2 starts
						return StepOutcome[int64]{Ops: int64(float64(gap) / 2 * rate), LocalIters: 1}
					case in[0].Version == 0:
						stale.Add(1)
						state[1] = -1
					}
					return adopt(state, p, in, 10)
				})
			st, err := Run(quietCluster(), w, Options{Staleness: Unbounded, Executor: ex, Workers: 1})
			if err != nil {
				t.Fatalf("%v: %v", ex, err)
			}
			return state, st, stale.Load()
		}
		desState, des, desStale := run(DES)
		parState, par, parStale := run(Parallel)
		statsEqual(t, "queued", des, par)
		if !reflect.DeepEqual(desState, parState) || !reflect.DeepEqual(parState, []int64{9, 9, 0}) {
			t.Fatalf("state %v, DES %v", parState, desState)
		}
		if desStale != 0 || parStale != 1 || par.SpecDiscarded != 1 {
			t.Fatalf("stale steps run: DES %d, parallel %d; %d discarded; want 0, 1 and 1: partition 1's step 1", desStale, parStale, par.SpecDiscarded)
		}
	})

	// Partition 0's step 0 panics on the inputs it is meant to have: the
	// speculation is committed, and the run fails as it does under DES.
	// Partition 1's step was dispatched beside it and is still in flight;
	// Close must wait for it and take it back.
	t.Run("committed, its panic fails the run", func(t *testing.T) {
		state := []int64{3, 1}
		var running atomic.Int32
		w := chain([][]int{{}, {0}}, []int64{1 << 10, late}, state,
			func(p, step int, in []Snapshot[int64]) StepOutcome[int64] {
				if p == 0 {
					panic("boom")
				}
				running.Add(1)
				defer running.Add(-1)
				state[1] = 7
				return StepOutcome[int64]{Ops: 10, LocalIters: 1, Quiescent: true}
			})
		_, err := Run(quietCluster(), w, Options{Staleness: Unbounded, Executor: Parallel, Workers: 2})
		if err == nil || err.Error() != "async: partition 0 step 0 panicked: boom" {
			t.Fatalf("error %v, want partition 0's panic", err)
		}
		if running.Load() != 0 || state[1] != 1 {
			t.Fatalf("after Run returned: %d steps running, partition 1's state %d (want 0 and 1: undone)", running.Load(), state[1])
		}
	})

	// A speculation outlives its partition's gate park. Partition 2 reads
	// 1, which reads 0; S = 0. Partition 1 rests at once, so when 2's step
	// 1 is dispatched the gate lets it through on the settled exemption,
	// reading 1 at version 0. Then 0 — started late, and slow — publishes
	// and wakes 1; 2's event pops while 1 is awake and behind: parked, its
	// speculation still in flight. 1 publishes and releases 2, whose
	// canonical read now sees version 1: discarded, rerun.
	t.Run("gate-parked with a speculation in flight", func(t *testing.T) {
		c := quietCluster()
		gap := c.DFSReadCost(late, true) - c.DFSReadCost(1<<10, true) // 0 starts this long after 2
		rate := c.Config().ComputeRate
		run := func(ex Executor, rec *trace.Recorder) ([]int64, *RunStats) {
			state := []int64{0, 0, 0}
			w := chain([][]int{{}, {0}, {1}}, []int64{late, 1 << 10, 1 << 10}, state,
				func(p, step int, in []Snapshot[int64]) StepOutcome[int64] {
					switch {
					case p == 0: // publishes 5, a thousand seconds after it started
						state[0] = 5
						return StepOutcome[int64]{Publish: true, Data: 5, Bytes: 8, Ops: int64(1000 * rate), LocalIters: 1, Quiescent: true}
					case p == 2 && step == 0: // still busy when 0 starts, done long before 0 is
						state[2] = 1
						return StepOutcome[int64]{Publish: true, Data: 1, Bytes: 8, Ops: int64((float64(gap) + 10) * rate), LocalIters: 1}
					}
					return adopt(state, p, in, 10)
				})
			st, err := Run(quietCluster(), w, Options{Staleness: 0, Executor: ex, Workers: 2, Trace: rec})
			if err != nil {
				t.Fatalf("%v: %v", ex, err)
			}
			return state, st
		}
		desState, des := run(DES, nil)
		rec := trace.NewRecorder(1 << 10)
		parState, par := run(Parallel, rec)
		statsEqual(t, "parked", des, par)
		if !reflect.DeepEqual(desState, parState) || !reflect.DeepEqual(parState, []int64{5, 5, 5}) {
			t.Fatalf("state %v, DES %v", parState, desState)
		}
		disp, park, inv := kinds(rec, 2, trace.KindSpecDispatch), kinds(rec, 2, trace.KindGateBegin), kinds(rec, 2, trace.KindSpecInvalidate)
		if len(park) != 1 || len(inv) != 1 || len(disp) < 2 || disp[1].Step != 1 || inv[0].Step != 1 {
			t.Fatalf("partition 2: dispatches %+v, parks %+v, discards %+v; want step 1 dispatched, parked once, discarded once", disp, park, inv)
		}
		if !(disp[1].Vt <= park[0].Vt && park[0].Vt < inv[0].Vt) {
			t.Fatalf("partition 2 step 1: dispatched for %v, parked at %v, discarded at %v; want in that order", disp[1].Vt, park[0].Vt, inv[0].Vt)
		}
		if inv[0].Arg1 != 1 || inv[0].Arg2 != 1<<32|0 {
			t.Fatalf("discard blames neighbor %d, versions %#x; want neighbor 1 read at version 1, speculated on 0", inv[0].Arg1, inv[0].Arg2)
		}
	})

	// The run ends under its speculations. The phase loop cannot end that
	// way on its own — a partition that is force-stopped, or parked for
	// good, has no event pending and so no speculation — but a caller
	// driving the phases can stop early, and an aborted run does. Finish
	// must wait for what is in flight and take it back before it reads the
	// partitions.
	t.Run("run ended under it", func(t *testing.T) {
		uniform := func(int) int64 { return 1e5 }
		w := counter(8, 25, uniform)
		var running atomic.Int32
		inner := w.step
		w.step = func(p, step int, in []Snapshot[int64]) StepOutcome[int64] {
			running.Add(1)
			defer running.Add(-1)
			return inner(p, step, in)
		}
		s, err := NewScheduler[int64](quietCluster(), w, Options{Staleness: 2, Executor: Parallel, Workers: 2, MaxSteps: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, ok := s.Admit(); !ok {
			t.Fatal("nothing admitted")
		}
		st, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpecDepth == 0 || st.SpecDiscarded != int64(st.SpecDepth) || st.Speculated != 0 {
			t.Fatalf("depth %d, %d discarded, %d kept; want every dispatched step discarded", st.SpecDepth, st.SpecDiscarded, st.Speculated)
		}
		if running.Load() != 0 || !reflect.DeepEqual(w.state, make([]int64, 8)) {
			t.Fatalf("after Finish: %d steps running, state %v; want none and nothing stepped", running.Load(), w.state)
		}
	})

	// A crash takes back the crashed worker's own speculation before
	// recovery restores and replays (the discard names no neighbor).
	t.Run("crashed", func(t *testing.T) {
		cfg := crashyCluster(cluster.HPCCluster(), 200*simtime.Millisecond)
		run := func(ex Executor, rec *trace.Recorder) ([]int64, *RunStats) {
			w := newRecCounter(t, 8, 25, func(int) int64 { return 1e6 })
			w.strict = ex == DES
			st, err := Run(cluster.New(cfg), w, Options{Staleness: 4, Executor: ex, Workers: 4, Trace: rec})
			if err != nil {
				t.Fatalf("%v: %v", ex, err)
			}
			return w.cnt, st
		}
		desState, des := run(DES, nil)
		rec := trace.NewRecorder(1 << 14)
		parState, par := run(Parallel, rec)
		statsEqual(t, "crashed", des, par)
		if !reflect.DeepEqual(desState, parState) {
			t.Fatalf("state %v, DES %v", parState, desState)
		}
		crashed := 0
		for _, e := range rec.Events() {
			if e.Kind == trace.KindSpecInvalidate && e.Arg1 == -1 {
				crashed++
			}
		}
		if crashed == 0 || par.Crashes == 0 {
			t.Fatalf("%d crashes, %d of them under a speculation in flight; the case was not exercised", par.Crashes, crashed)
		}
	})
}
