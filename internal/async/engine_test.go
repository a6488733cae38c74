package async

import (
	"testing"

	"repro/internal/cluster"
)

// toy adapts closures to the Workload interface for engine tests.
type toy struct {
	parts     int
	neighbors func(p int) []int
	init      func(p int) (int64, int64)
	step      func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64]
	// state is everything a partition's step closure carries from one
	// step to the next, one word per partition (nil: nothing) — what
	// makes the toy Undoable, so the parallel executor speculates it.
	state []int64
}

func (t *toy) Parts() int                { return t.parts }
func (t *toy) Neighbors(p int) []int     { return t.neighbors(p) }
func (t *toy) Init(p int) (int64, int64) { return t.init(p) }
func (t *toy) Step(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
	return t.step(p, step, inputs)
}

func (t *toy) SaveUndo(p int, _ any) any {
	if t.state == nil {
		return nil
	}
	return t.state[p]
}

func (t *toy) Restore(p int, buf any) {
	if t.state != nil {
		t.state[p] = buf.(int64)
	}
}

// quietCluster is asynctest.QuietCluster, which this package cannot
// import: asynctest imports async.
func quietCluster() *cluster.Cluster {
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	return cluster.New(cfg)
}

func ring(n int) func(p int) []int {
	return func(p int) []int { return []int{(p + n - 1) % n} }
}

// maxProp builds the max-propagation workload: each partition holds a
// value and adopts the largest value it sees; the global max must reach
// every partition through wake-on-publish cascades alone.
func maxProp(vals []int64) *toy {
	n := len(vals)
	return &toy{
		parts:     n,
		neighbors: ring(n),
		state:     vals,
		init:      func(p int) (int64, int64) { return vals[p], 1 << 10 },
		step: func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			changed := false
			for _, in := range inputs {
				if in.Data > vals[p] {
					vals[p] = in.Data
					changed = true
				}
			}
			return StepOutcome[int64]{
				Publish: changed, Data: vals[p], Bytes: 8, Ops: 10,
				LocalIters: 1, Quiescent: true,
			}
		},
	}
}

func TestEngineMaxPropagation(t *testing.T) {
	for _, s := range []int{0, 2, Unbounded} {
		vals := []int64{3, 9, 1, 7, 2, 8, 4, 6}
		stats, err := Run(quietCluster(), maxProp(vals), Options{Staleness: s})
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if !stats.Converged {
			t.Fatalf("S=%d: not converged", s)
		}
		for p, v := range vals {
			if v != 9 {
				t.Fatalf("S=%d: partition %d settled at %d, want 9", s, p, v)
			}
		}
		if stats.Duration <= 0 {
			t.Fatalf("S=%d: zero duration", s)
		}
		// The run pays one job launch, not one per wave.
		if stats.Duration > 2*quietCluster().Config().JobOverhead {
			t.Fatalf("S=%d: duration %v pays repeated job overheads", s, stats.Duration)
		}
	}
}

// counter builds a workload where every partition counts to target,
// publishing each increment; per-partition op costs differ wildly so
// fast workers try to run far ahead of slow ones.
func counter(n int, target int, opsOf func(p int) int64) *toy {
	cnt := make([]int64, n)
	return &toy{
		parts:     n,
		neighbors: ring(n),
		state:     cnt,
		init:      func(p int) (int64, int64) { return 0, 1 << 10 },
		step: func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			if cnt[p] >= int64(target) {
				// Re-stepped by a neighbor's publish after finishing:
				// nothing left to do.
				return StepOutcome[int64]{Ops: 1, LocalIters: 1, Quiescent: true}
			}
			cnt[p]++
			return StepOutcome[int64]{
				Publish: true, Data: cnt[p], Bytes: 8, Ops: opsOf(p),
				LocalIters: 1, Quiescent: cnt[p] >= int64(target),
			}
		},
	}
}

func TestEngineStalenessBoundEnforced(t *testing.T) {
	hetero := func(p int) int64 {
		if p == 0 {
			return 4e6 // ~0.2 sim-seconds per step: the straggler
		}
		return 1e4
	}
	for _, s := range []int{0, 1, 3} {
		stats, err := Run(quietCluster(), counter(4, 40, hetero), Options{Staleness: s})
		if err != nil {
			t.Fatal(err)
		}
		if stats.MaxLead > s {
			t.Fatalf("S=%d: MaxLead %d violates the staleness bound", s, stats.MaxLead)
		}
		if stats.GateWaits == 0 {
			t.Fatalf("S=%d: heterogeneous speeds never hit the gate", s)
		}
		if !stats.Converged {
			t.Fatalf("S=%d: not converged", s)
		}
	}
	// Free-running: the fast workers race far ahead of the straggler.
	stats, err := Run(quietCluster(), counter(4, 40, hetero), Options{Staleness: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxLead <= 3 {
		t.Fatalf("unbounded run stayed at lead %d; gate tests prove nothing", stats.MaxLead)
	}
	if stats.GateWaits != 0 {
		t.Fatal("unbounded run hit the gate")
	}
}

func TestEngineLockstepAtZeroStaleness(t *testing.T) {
	uniform := func(int) int64 { return 1e5 }
	stats, err := Run(quietCluster(), counter(6, 25, uniform), Options{Staleness: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxLead != 0 {
		t.Fatalf("S=0 saw lead %d", stats.MaxLead)
	}
	// Every worker publishes exactly its 25 increments; wake-on-publish
	// steps after finishing add steps but never versions.
	if stats.Publishes != 6*25 {
		t.Fatalf("published %d versions, want %d", stats.Publishes, 6*25)
	}
	for p, s := range stats.PerWorkerSteps {
		if s < 25 {
			t.Fatalf("worker %d took only %d steps, want >= 25", p, s)
		}
	}
}

// TestEngineDeterministic replays a run with stragglers and failures
// enabled: the virtual-time event loop must order every stochastic draw
// identically.
func TestEngineDeterministic(t *testing.T) {
	noisy := func() *cluster.Cluster {
		cfg := cluster.EC2LargeCluster()
		cfg.FailureProb = 0.05
		cfg.StragglerJitter = 0.2
		return cluster.New(cfg)
	}
	run := func() *RunStats {
		hetero := func(p int) int64 { return int64(1e4 * (1 + p)) }
		stats, err := Run(noisy(), counter(5, 30, hetero), Options{Staleness: 2})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	statsEqual(t, "replay", run(), run())
}

// TestEngineIdleWakeup: partition 1 quiesces instantly but must track
// partition 0's five later publications through wake-on-publish, ending
// with 0's final value.
func TestEngineIdleWakeup(t *testing.T) {
	var got int64
	w := &toy{
		parts: 2,
		neighbors: func(p int) []int {
			if p == 1 {
				return []int{0}
			}
			return nil
		},
		init: func(p int) (int64, int64) { return 0, 1 << 10 },
		step: func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
			if p == 0 {
				v := int64(step + 1)
				return StepOutcome[int64]{
					Publish: true, Data: v, Bytes: 8, Ops: 1e6,
					LocalIters: 1, Quiescent: v >= 5,
				}
			}
			got = inputs[0].Data
			return StepOutcome[int64]{Ops: 10, LocalIters: 1, Quiescent: true}
		},
	}
	stats, err := Run(quietCluster(), w, Options{Staleness: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("not converged")
	}
	if got != 5 {
		t.Fatalf("idle follower last saw %d, want 5 (missed a wakeup)", got)
	}
}

func TestEngineMaxStepsForcesStop(t *testing.T) {
	w := counter(3, 1<<30, func(int) int64 { return 100 }) // never quiesces
	stats, err := Run(quietCluster(), w, Options{Staleness: 1, MaxSteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged {
		t.Fatal("runaway workload reported converged")
	}
	for p, s := range stats.PerWorkerSteps {
		if s > 20 {
			t.Fatalf("worker %d exceeded MaxSteps: %d", p, s)
		}
	}
}

func TestEngineRejectsBadWorkloads(t *testing.T) {
	bad := &toy{parts: 0}
	if _, err := Run(quietCluster(), bad, Options{}); err == nil {
		t.Fatal("zero partitions accepted")
	}
	selfLoop := maxProp([]int64{1, 2})
	selfLoop.neighbors = func(p int) []int { return []int{p} }
	if _, err := Run(quietCluster(), selfLoop, Options{}); err == nil {
		t.Fatal("self-neighbor accepted")
	}
	panicky := maxProp([]int64{1, 2})
	panicky.step = func(p, step int, inputs []Snapshot[int64]) StepOutcome[int64] {
		panic("boom")
	}
	if _, err := Run(quietCluster(), panicky, Options{}); err == nil {
		t.Fatal("step panic not converted to error")
	}
}

// TestEngineAccountsClusterMetrics: each executor adds the run's compute
// operations, maxProp's 10 a step, to the cluster's one counter.
func TestEngineAccountsClusterMetrics(t *testing.T) {
	for _, ex := range []Executor{DES, Parallel, Live} {
		c := liveCluster()
		stats, err := Run(c, maxProp([]int64{5, 1, 9, 3}), Options{Staleness: 1, Executor: ex})
		if err != nil {
			t.Fatalf("%v: %v", ex, err)
		}
		if got, want := c.Metrics().ComputeOps, 10*stats.Steps; got != want || want == 0 {
			t.Fatalf("%v: ComputeOps %d, want 10 x %d steps", ex, got, stats.Steps)
		}
	}
}
