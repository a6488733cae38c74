package async

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// liveCluster is quietCluster with the emulated publish-visibility
// delay scaled down so real-time waits stay test-sized.
func liveCluster() *cluster.Cluster {
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	cfg.LiveNetScale = 0.02
	return cluster.New(cfg)
}

func TestLiveExecutorString(t *testing.T) {
	if got := Live.String(); got != "live" {
		t.Fatalf("Live.String() = %q", got)
	}
}

// TestLiveHasNoScheduler: the live executor has no phase loop, so
// NewScheduler refuses it, names Run, and starts nothing: no goroutine,
// and no call into the workload.
func TestLiveHasNoScheduler(t *testing.T) {
	before := runtime.NumGoroutine()
	w := maxProp([]int64{1, 2, 3, 4})
	w.init = func(p int) (int64, int64) {
		t.Fatalf("NewScheduler(Live) initialized partition %d", p)
		return 0, 0
	}
	s, err := NewScheduler[int64](liveCluster(), w, Options{Executor: Live, Workers: 4})
	if err == nil || s != nil || !strings.Contains(err.Error(), "Run") {
		t.Fatalf("NewScheduler(Live) = %v, %v; want no scheduler and an error naming Run", s, err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("NewScheduler(Live) left %d goroutines running, %d before", after, before)
	}
}

// TestLiveMaxPropagation: the wake-on-publish cascade must carry the
// global max to every partition on the real pool, at every staleness.
func TestLiveMaxPropagation(t *testing.T) {
	for _, s := range []int{0, 2, Unbounded} {
		for _, workers := range []int{1, 4} {
			vals := []int64{3, 9, 1, 7, 2, 8, 4, 6}
			c := liveCluster()
			stats, err := Run(c, maxProp(vals), Options{Staleness: s, Executor: Live, Workers: workers})
			if err != nil {
				t.Fatalf("S=%d w=%d: %v", s, workers, err)
			}
			if !stats.Converged {
				t.Fatalf("S=%d w=%d: not converged", s, workers)
			}
			for p, v := range vals {
				if v != 9 {
					t.Fatalf("S=%d w=%d: partition %d settled at %d, want 9", s, workers, p, v)
				}
			}
			if stats.Steps < int64(len(vals)) || stats.Publishes == 0 || stats.Duration <= 0 {
				t.Fatalf("S=%d w=%d: implausible stats %+v", s, workers, stats)
			}
		}
	}
}

// TestLiveStalenessBoundEnforced: the gate must hold MaxLead <= S on
// the real pool, where leads arise from genuine scheduling skew rather
// than modeled cost skew. A real per-step delay on one partition makes
// the others run ahead.
func TestLiveStalenessBoundEnforced(t *testing.T) {
	slowStep := func(base *toy) *toy {
		inner := base.step
		base.step = func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			if p == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			return inner(p, step, inputs)
		}
		return base
	}
	for _, s := range []int{0, 1, 3} {
		stats, err := Run(liveCluster(), slowStep(counter(4, 30, func(int) int64 { return 10 })),
			Options{Staleness: s, Executor: Live, Workers: 4})
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if !stats.Converged {
			t.Fatalf("S=%d: not converged", s)
		}
		if stats.MaxLead > s {
			t.Fatalf("S=%d: MaxLead %d exceeds bound", s, stats.MaxLead)
		}
		if s == 0 && stats.GateWaits == 0 {
			t.Fatalf("S=0: lockstep with a slow partition booked no gate waits")
		}
		if stats.GateWaits > 0 && stats.GateWaitTime <= 0 {
			t.Fatalf("S=%d: %d gate waits measured no wait time", s, stats.GateWaits)
		}
	}
}

// TestLiveTimedWakeOnTime: a partition parked until a neighbor's
// publication becomes visible must wake no earlier than that, and on an
// idle pool well inside a millisecond after it. Lockstep over a toy ring
// whose steps are near-empty makes every wave wait out one ≈ 0.2 ms
// modeled push; the runtime's idle timer alone fires up to a millisecond
// late, which would put the mean lateness near 1 ms.
func TestLiveTimedWakeOnTime(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's overhead, not the wake, would be measured")
	}
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	cfg.LiveNetScale = 0.04 // an 8-byte push: 0.22 ms
	var means []time.Duration
	for range 3 {
		rec := trace.NewRecorder(1 << 14)
		stats, err := Run(cluster.New(cfg), counter(4, 50, func(int) int64 { return 1 }),
			Options{Staleness: 0, Executor: Live, Workers: 2, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged || stats.LiveWakes == 0 || rec.Dropped() != 0 {
			t.Fatalf("want a converged run with timed wakes and a complete trace: %v, dropped %d", stats, rec.Dropped())
		}
		checkNoEarlyWake(t, rec.Events())
		mean := time.Duration(float64(stats.LiveWakeLateTime) / float64(stats.LiveWakes) * float64(time.Second))
		t.Logf("%d timed wakes, mean lateness %v", stats.LiveWakes, mean)
		if mean < 500*time.Microsecond {
			return
		}
		means = append(means, mean)
	}
	t.Fatalf("mean lateness per timed wake %v in every run, want < 0.5 ms in one", means)
}

// checkNoEarlyWake fails unless every gate wait on a published version
// was released no earlier than that version became visible: the release
// is stamped when the woken partition runs, the visibility time is the
// publication's stamp plus its modeled push.
func checkNoEarlyWake(t *testing.T, evs []trace.Event) {
	t.Helper()
	type version struct{ part, v int64 }
	visible := map[version]simtime.Duration{}
	waiting := map[int32]version{}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindPublish:
			visible[version{int64(ev.Part), ev.Arg1}] = ev.Vt + ev.Dur
		case trace.KindGateBegin:
			waiting[ev.Part] = version{ev.Arg1, ev.Arg2}
		case trace.KindGateRelease:
			// A wait released by a neighbor settling may name a version
			// that never exists.
			if at, ok := visible[waiting[ev.Part]]; ok && ev.Vt < at {
				t.Fatalf("partition %d woke at %v, before %v made the version it waited on visible", ev.Part, ev.Vt, at)
			}
		}
	}
}

// TestLiveAdaptivePolicy: the shared adapt.Controller must work behind
// the live engine's mutex; the aimd policy should move the bound at
// least once on a gate-heavy run.
func TestLiveAdaptivePolicy(t *testing.T) {
	pol, err := adapt.AIMD(0, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(liveCluster(), counter(4, 40, func(int) int64 { return 10 }),
		Options{Executor: Live, Workers: 2, Adapt: pol})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("not converged")
	}
	if stats.AdaptRaises+stats.AdaptCuts == 0 {
		t.Fatalf("controller never moved the bound: %+v", stats)
	}
	if stats.StalenessMax > 8 {
		t.Fatalf("bound exceeded the policy cap: %d", stats.StalenessMax)
	}
}

// TestLiveForcedStop: a workload that never quiesces must be cut off at
// MaxSteps per partition and reported unconverged, without hanging.
func TestLiveForcedStop(t *testing.T) {
	n := 4
	w := &toy{
		parts:     n,
		neighbors: ring(n),
		init:      func(p int) (int64, int64) { return 0, 8 },
		step: func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			return StepOutcome[int64]{Publish: true, Data: int64(step), Bytes: 8, Ops: 1, Quiescent: false}
		},
	}
	stats, err := Run(liveCluster(), w, Options{Staleness: Unbounded, Executor: Live, MaxSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged {
		t.Fatal("forced run reported converged")
	}
	for p, steps := range stats.PerWorkerSteps {
		if steps != 5 {
			t.Fatalf("partition %d ran %d steps, want the 5-step cap", p, steps)
		}
	}
}

// TestLiveStepErrorPropagates: a panicking workload step must surface
// as a run error, and the engine must still shut down cleanly.
func TestLiveStepErrorPropagates(t *testing.T) {
	n := 4
	w := &toy{
		parts:     n,
		neighbors: ring(n),
		init:      func(p int) (int64, int64) { return 0, 8 },
		step: func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			if p == 2 && step == 3 {
				panic("boom")
			}
			return StepOutcome[int64]{Publish: true, Data: int64(step), Bytes: 8, Ops: 1, Quiescent: false}
		},
	}
	_, err := Run(liveCluster(), w, Options{Staleness: Unbounded, Executor: Live})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want step panic surfaced as error, got %v", err)
	}
}

// TestLiveRejectsCrashModel: crash schedules and checkpoint pricing are
// virtual-time machinery; requesting them with the live executor is a
// configuration error, not a silent no-op.
func TestLiveRejectsCrashModel(t *testing.T) {
	cfg := cluster.EC2LargeCluster()
	cfg.CrashMTTF = 2 * 1e0
	vals := []int64{1, 2}
	_, err := Run(cluster.New(cfg), maxProp(vals), Options{Executor: Live})
	if err == nil || !strings.Contains(err.Error(), "crash fault model") {
		t.Fatalf("want crash-model rejection, got %v", err)
	}
	_, err = Run(liveCluster(), maxProp(vals), Options{Executor: Live, Checkpoint: recovery.EverySteps(4)})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("want checkpoint-policy rejection, got %v", err)
	}
}

// TestLiveWakeBeforeVisibleIsOneWait: a partition woken while the
// version it waits on is still in flight — its writer settled, released
// its waiters and stepped again — re-runs the gate, which holds it, and
// that is still the one wait: no release and no second hold. The wait is
// booked once, when the gate admits the step, no earlier than the
// version becomes visible.
func TestLiveWakeBeforeVisibleIsOneWait(t *testing.T) {
	rec := trace.NewRecorder(1 << 10)
	r, _, err := newRun(liveCluster(), counter(2, 10, func(int) int64 { return 1 }),
		Options{Staleness: 0, Executor: Live, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	s := &liveExecutor[int64]{run: r, lps: make([]livePart, 2), timerKick: make(chan struct{}, 1)}
	s.pool = workpool.New(1, func(int, int) {}) // takes the admitted step's re-enqueue
	defer s.pool.Close()
	s.lps[0].waitStart, s.lps[1].waitStart = -1, -1
	s.start = time.Now()
	// Partition 0 has published version 1 and needs its neighbor's
	// version 1, which exists but is in flight for another 30 ms.
	s.parts[0].version, s.parts[0].steps = 1, 1
	visibleAt := s.now() + 0.03
	if err := s.store.Publish(0, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Publish(1, 1, visibleAt, 1); err != nil {
		t.Fatal(err)
	}
	count := func(kind trace.Kind) (n int) {
		for _, ev := range rec.Events() {
			if ev.Kind == kind {
				n++
			}
		}
		return n
	}

	s.runPart(0, 0) // the hold
	began := s.lps[0].waitStart
	if s.stats.GateWaits != 1 || began < 0 || s.parts[0].state != timed {
		t.Fatalf("the first gate: %d waits, wait start %v, state %d; want one wait, parked timed", s.stats.GateWaits, began, s.parts[0].state)
	}
	s.parts[0].state = runnable // an early wake
	s.runPart(0, 0)
	if s.stats.GateWaits != 1 || count(trace.KindGateBegin) != 1 || count(trace.KindGateRelease) != 0 ||
		s.stats.GateWaitTime != 0 || s.lps[0].waitStart != began || s.parts[0].state != timed {
		t.Fatalf("a wake before the version is visible: %d waits, %d holds and %d releases traced, %v waited, wait start %v (was %v), state %d; want the one wait still open, parked timed",
			s.stats.GateWaits, count(trace.KindGateBegin), count(trace.KindGateRelease), s.stats.GateWaitTime, s.lps[0].waitStart, began, s.parts[0].state)
	}
	for s.now() < visibleAt {
		time.Sleep(time.Millisecond)
	}
	s.parts[0].state = runnable // the wake on time
	s.runPart(0, 0)
	checkNoEarlyWake(t, rec.Events())
	if s.stats.GateWaits != 1 || count(trace.KindGateRelease) != 1 || s.parts[0].steps != 2 ||
		s.stats.GateWaitTime < visibleAt-began || s.lps[0].waitStart != -1 {
		t.Fatalf("the wake on time: %d waits, %d releases, %d steps, %v waited of the %v in flight; want one wait released and booked, the step run",
			s.stats.GateWaits, count(trace.KindGateRelease), s.parts[0].steps, s.stats.GateWaitTime, visibleAt-began)
	}
}
