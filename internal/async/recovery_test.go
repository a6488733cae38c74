package async

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/recovery"
	"repro/internal/simtime"
)

// recCounter is the Recoverable engine-test workload: every partition
// counts to target (publishing each increment) and can checkpoint and
// restore its counter. Beyond driving the fault model, it is its own
// replay oracle: the first execution of each (partition, step) records
// a fingerprint of the entry state and the consumed input versions, and
// any re-execution — recovery replay revisits step indices — must
// reproduce it exactly, or restore+replay failed to rebuild the lost
// state bit for bit.
//
// The strict oracle is sound only under DES, where every re-invocation
// of a step index is a genuine replay. Under the parallel executor a
// discarded speculation ran the step index on inputs the canonical run
// legitimately does not read — a conforming Step is a pure function of
// (p, step, inputs) and the undone state, so the superseded call is
// invisible, but the fingerprints differ by design. Parallel runs
// therefore record without checking, and correctness is pinned by exact
// DES/parallel parity of final state and stats instead.
type recCounter struct {
	t      *testing.T
	n      int
	target int64
	opsOf  func(p int) int64
	strict bool
	cnt    []int64
	// trace[p][step] is the recorded fingerprint of step's first run.
	// Per-partition slices are touched only by that partition's steps,
	// which the runtime serializes (pool hand-off happens-before replay).
	trace [][]uint64
}

func newRecCounter(t *testing.T, n int, target int64, opsOf func(p int) int64) *recCounter {
	return &recCounter{
		t: t, n: n, target: target, opsOf: opsOf,
		cnt:   make([]int64, n),
		trace: make([][]uint64, n),
	}
}

func (w *recCounter) Parts() int            { return w.n }
func (w *recCounter) Neighbors(p int) []int { return []int{(p + w.n - 1) % w.n} }
func (w *recCounter) Init(p int) (int64, int64) {
	return 0, 1 << 10
}

func (w *recCounter) fingerprint(p int, inputs []Snapshot[int64]) uint64 {
	fp := uint64(w.cnt[p]) * 0x9e3779b97f4a7c15
	for _, in := range inputs {
		fp = fp*31 + uint64(in.Version)*2654435761 + uint64(in.Data)
	}
	return fp
}

func (w *recCounter) Step(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
	fp := w.fingerprint(p, inputs)
	if step < len(w.trace[p]) {
		if w.strict && w.trace[p][step] != fp {
			w.t.Errorf("replay of partition %d step %d diverged: fingerprint %x, original %x",
				p, step, fp, w.trace[p][step])
		}
		w.trace[p][step] = fp
	} else if step == len(w.trace[p]) {
		w.trace[p] = append(w.trace[p], fp)
	} else {
		w.t.Errorf("partition %d ran step %d with only %d steps traced", p, step, len(w.trace[p]))
	}
	if w.cnt[p] >= w.target {
		return StepOutcome[int64]{Ops: 1, LocalIters: 1, Quiescent: true}
	}
	w.cnt[p]++
	return StepOutcome[int64]{
		Publish: true, Data: w.cnt[p], Bytes: 8, Ops: w.opsOf(p),
		LocalIters: 1, Quiescent: w.cnt[p] >= w.target,
	}
}

func (w *recCounter) Checkpoint(p int) (any, int64) { return w.cnt[p], 64 }
func (w *recCounter) Restore(p int, state any)      { w.cnt[p] = state.(int64) }
func (w *recCounter) SaveUndo(p int, _ any) any     { return w.cnt[p] }

// crashyCluster returns a preset with worker crashes enabled at the
// given MTTF, on top of the full stochastic noise (stragglers and
// transient failures), so crash handling is exercised against the
// hardest draw-ordering case.
func crashyCluster(base *cluster.Config, mttf simtime.Duration) *cluster.Config {
	cfg := *base
	cfg.CrashMTTF = mttf
	return &cfg
}

// runRecCounter runs the recoverable counter to quiescence and returns
// its stats and final state.
func runRecCounter(t *testing.T, cfg *cluster.Config, opt Options) ([]int64, *RunStats) {
	t.Helper()
	hetero := func(p int) int64 { return int64(1e4 * (1 + p)) }
	w := newRecCounter(t, 5, 30, hetero)
	w.strict = opt.Executor == DES
	stats, err := Run(cluster.New(cfg), w, opt)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return w.cnt, stats
}

// TestCrashRecoveryHappens pins that the fault model actually fires:
// with an MTTF well inside the run length, crashes strike, recoveries
// replay journaled steps, and the run still converges to the exact
// counter targets.
func TestCrashRecoveryHappens(t *testing.T) {
	cfg := crashyCluster(cluster.EC2LargeCluster(), 4*simtime.Second)
	vals, stats := runRecCounter(t, cfg, Options{Staleness: 2})
	if stats.Crashes == 0 || stats.Recoveries == 0 {
		t.Fatalf("no crashes with MTTF inside the run: %+v", stats)
	}
	if stats.Recoveries > stats.Crashes {
		t.Fatalf("more recoveries (%d) than crashes (%d)", stats.Recoveries, stats.Crashes)
	}
	if stats.RecoveryTime <= 0 {
		t.Fatalf("recoveries performed but RecoveryTime = %v", stats.RecoveryTime)
	}
	if !stats.Converged {
		t.Fatal("crashy run did not converge")
	}
	for p, v := range vals {
		if v != 30 {
			t.Fatalf("partition %d settled at %d, want 30", p, v)
		}
	}
	// Crash-free control: same seed, crashes disabled, must be cheaper
	// in virtual time (recovery is pure added cost for a fixed workload).
	_, clean := runRecCounter(t, cluster.EC2LargeCluster(), Options{Staleness: 2})
	if clean.Crashes != 0 || clean.Recoveries != 0 || clean.LostSteps != 0 ||
		clean.Checkpoints != 0 || clean.CheckpointTime != 0 || clean.RecoveryTime != 0 {
		t.Fatalf("crash counters nonzero with MTTF=0: %+v", clean)
	}
	if stats.Duration <= clean.Duration {
		t.Fatalf("crashy run (%v) not slower than crash-free (%v)", stats.Duration, clean.Duration)
	}
}

// TestCrashSamplingDeterministic: the crash schedule is a pure function
// of (seed, MTTF, worker) — replaying the same configuration must
// reproduce every crash, recovery, lost step, and the exact duration.
func TestCrashSamplingDeterministic(t *testing.T) {
	cfg := crashyCluster(cluster.EC2LargeCluster(), 4*simtime.Second)
	for _, opt := range []Options{
		{Staleness: 2},
		{Staleness: 2, Checkpoint: recovery.EverySteps(4)},
	} {
		_, a := runRecCounter(t, cfg, opt)
		_, b := runRecCounter(t, cfg, opt)
		statsEqual(t, fmt.Sprintf("crash replay (policy %v)", opt.Checkpoint), a, b)
	}
}

// TestCrashParityAcrossExecutors is the determinism-under-crashes
// contract (and the crash-sampling determinism check across executors):
// on every preset the parallel executor targets, with crashes striking
// mid-run, DES and parallel must report identical virtual-time stats —
// including Crashes/Recoveries/LostSteps — and identical converged
// state, at lockstep, intermediate, and unbounded staleness, with and
// without a checkpoint policy. CI runs this under -race -cpu 1,4.
func TestCrashParityAcrossExecutors(t *testing.T) {
	for _, base := range parityClusters() {
		cfg := crashyCluster(base, 3*simtime.Second)
		for _, s := range []int{0, 2, Unbounded} {
			for _, pol := range []recovery.Policy{recovery.None(), recovery.EverySteps(3)} {
				opt := Options{Staleness: s, Checkpoint: pol}
				run := func(ex Executor) ([]int64, *RunStats) {
					o := opt
					o.Executor = ex
					return runRecCounter(t, cfg, o)
				}
				desVals, desStats := run(DES)
				parVals, parStats := run(Parallel)
				label := cfg.Name + "/crash"
				statsEqual(t, label, desStats, parStats)
				if desStats.Crashes == 0 {
					t.Fatalf("%s S=%d: crash parity test saw no crashes", cfg.Name, s)
				}
				for p := range desVals {
					if desVals[p] != parVals[p] {
						t.Fatalf("%s S=%d pol=%v: partition %d state %d (DES) vs %d (parallel)",
							cfg.Name, s, pol, p, desVals[p], parVals[p])
					}
				}
			}
		}
	}
}

// TestCheckpointPolicyTradeoff pins the subsystem's raison d'être: a
// denser checkpoint cadence must reduce the steps lost to a crash (and
// the time spent replaying them) while paying more checkpoint overhead.
// The cluster is tuned so crashes land in the stepping phase, not in
// the job launch (where journals are empty and every policy looks the
// same): negligible startup, cheap checkpoints, MTTF inside the
// stepping phase's length.
func TestCheckpointPolicyTradeoff(t *testing.T) {
	base := cluster.EC2LargeCluster()
	base.FailureProb = 0
	base.StragglerJitter = 0
	base.JobOverhead = 100 * simtime.Millisecond
	base.TaskOverhead = 10 * simtime.Millisecond
	base.CheckpointCost = 10 * simtime.Millisecond
	base.RestoreCost = 100 * simtime.Millisecond
	cfg := crashyCluster(base, 150*simtime.Millisecond)
	_, none := runRecCounter(t, cfg, Options{Staleness: 2})
	_, dense := runRecCounter(t, cfg, Options{Staleness: 2, Checkpoint: recovery.EverySteps(2)})
	if none.Checkpoints != 0 || none.CheckpointTime != 0 {
		t.Fatalf("policy none took checkpoints: %+v", none)
	}
	if dense.Checkpoints == 0 || dense.CheckpointTime <= 0 {
		t.Fatalf("steps:2 policy never checkpointed: %+v", dense)
	}
	if none.Recoveries == 0 || dense.Recoveries == 0 {
		t.Fatalf("trade-off test needs recoveries on both sides: none=%d dense=%d", none.Recoveries, dense.Recoveries)
	}
	if none.LostSteps == 0 {
		t.Fatalf("checkpoint-free run lost no steps; crashes missed the stepping phase: %+v", none)
	}
	// Per-recovery replay burden must drop with dense checkpoints.
	lostPer := func(st *RunStats) float64 {
		return float64(st.LostSteps) / float64(st.Recoveries)
	}
	if lostPer(dense) >= lostPer(none) {
		t.Fatalf("dense checkpoints did not reduce replay: %.1f lost/recovery vs %.1f without checkpoints",
			lostPer(dense), lostPer(none))
	}
}

// TestCrashDuringSpeculation drives crashes into the parallel executor
// at a scale where speculation is active, pinning that taking back the
// crashed worker's in-flight speculation (waited for and undone before
// recovery restores and replays) preserves exact parity.
func TestCrashDuringSpeculation(t *testing.T) {
	cfg := crashyCluster(cluster.HPCCluster(), 200*simtime.Millisecond)
	uniform := func(int) int64 { return 1e6 }
	run := func(ex Executor) ([]int64, *RunStats) {
		w := newRecCounter(t, 8, 25, uniform)
		w.strict = ex == DES
		stats, err := Run(cluster.New(cfg), w, Options{Staleness: 4, Executor: ex})
		if err != nil {
			t.Fatal(err)
		}
		return w.cnt, stats
	}
	desVals, desStats := run(DES)
	parVals, parStats := run(Parallel)
	statsEqual(t, "hpc/crash-spec", desStats, parStats)
	if parStats.Speculated == 0 {
		t.Fatal("speculation never engaged; the crash/speculation interaction was not exercised")
	}
	if parStats.Crashes == 0 {
		t.Fatal("no crashes struck; the crash/speculation interaction was not exercised")
	}
	for p := range desVals {
		if desVals[p] != parVals[p] {
			t.Fatalf("partition %d state diverged: %d vs %d", p, desVals[p], parVals[p])
		}
	}
}

// TestCrashRequiresRecoverable: enabling the fault model on a workload
// without Checkpoint/Restore hooks is a configuration error, not a
// silent no-op.
func TestCrashRequiresRecoverable(t *testing.T) {
	cfg := crashyCluster(cluster.EC2LargeCluster(), simtime.Second)
	if _, err := Run(cluster.New(cfg), maxProp([]int64{1, 2, 3}), Options{Staleness: 2}); err == nil {
		t.Fatal("crashes enabled on a non-recoverable workload were accepted")
	}
	if _, err := Run(quietCluster(), maxProp([]int64{1, 2, 3}),
		Options{Staleness: 2, Checkpoint: recovery.EverySteps(2)}); err == nil {
		t.Fatal("checkpoint policy on a non-recoverable workload was accepted")
	}
}

// TestCrashForcedWorkerNotRecovered: a worker force-stopped at the step
// cap is dead to the run; crashes striking it are counted but not
// recovered, and the run still drains.
func TestCrashForcedWorkerNotRecovered(t *testing.T) {
	cfg := crashyCluster(cluster.EC2LargeCluster(), 2*simtime.Second)
	w := newRecCounter(t, 3, 1<<30, func(int) int64 { return 1e5 }) // never quiesces
	stats, err := Run(cluster.New(cfg), w, Options{Staleness: 1, MaxSteps: 15})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged {
		t.Fatal("runaway workload reported converged")
	}
	if stats.Crashes == 0 {
		t.Fatal("no crashes in a run long enough to see them")
	}
}
