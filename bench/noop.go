package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/async"
	"repro/internal/cluster"
)

const (
	payloadWidth = 8    // floats per published version
	payloadBytes = 64   // their serialized size, pricing the push
	noopOps      = 1000 // compute charged per step, pricing virtual time only
)

// noopWorkload is the synthetic async.Workload of the sched_* workloads:
// partitions on a ring, each reading its two neighbors on either side,
// publish a scripted payload for a fixed number of steps and then report
// quiescence. The step body does no work, so a run's host time is the
// runtime's own: store, gate, event heap, pricing and hooks. The
// payloads are drawn from the seed when the workload is built, and every
// step checks that each snapshot it is handed carries the payload the
// script holds for that partition and version.
//
// It also implements async.Recoverable and async.Progressive so the
// hook sets of sched_noop_hooks have something to checkpoint and sample.
type noopWorkload struct {
	parts, steps int
	nbrs         [][]int
	script       []float64 // row (p, v): the payload of partition p's version v
	done         []int     // steps completed per partition: the recoverable state
	calls        []int     // Step invocations per partition, crash replays included
	bad          int       // snapshots whose payload did not match the script
}

// newNoopWorkload draws the script from the seed: the payloads and the
// script's length, steps to steps + steps/128. The length is what lets the
// seed move virtual time a little (under half a percent) on
// sched_noop_hooks as well, whose cluster seed is pinned.
func newNoopWorkload(seed uint64, parts, steps int) *noopWorkload {
	rng := rand.New(rand.NewSource(int64(seed)))
	steps += rng.Intn(steps/128 + 1)
	w := &noopWorkload{
		parts:  parts,
		steps:  steps,
		nbrs:   make([][]int, parts),
		script: make([]float64, parts*(steps+1)*payloadWidth),
		done:   make([]int, parts),
		calls:  make([]int, parts),
	}
	for p := range w.nbrs {
		for _, d := range []int{-2, -1, 1, 2} {
			w.nbrs[p] = append(w.nbrs[p], (p+d+parts)%parts)
		}
	}
	for i := range w.script {
		w.script[i] = rng.Float64()
	}
	return w
}

// reset clears the per-run state so one workload serves many runs.
func (w *noopWorkload) reset() {
	for p := range w.done {
		w.done[p], w.calls[p] = 0, 0
	}
	w.bad = 0
}

func (w *noopWorkload) row(p, v int) []float64 {
	off := (p*(w.steps+1) + v) * payloadWidth
	return w.script[off : off+payloadWidth : off+payloadWidth]
}

func (w *noopWorkload) Parts() int            { return w.parts }
func (w *noopWorkload) Neighbors(p int) []int { return w.nbrs[p] }

func (w *noopWorkload) Init(p int) ([]float64, int64) { return w.row(p, 0), payloadBytes }

func (w *noopWorkload) Step(p, step int, inputs []async.Snapshot[[]float64]) async.StepOutcome[[]float64] {
	w.calls[p]++
	for _, in := range inputs {
		if in.Data[0] != w.script[(in.Part*(w.steps+1)+in.Version)*payloadWidth] {
			w.bad++
		}
	}
	w.done[p] = step + 1
	if step >= w.steps {
		return async.StepOutcome[[]float64]{Ops: noopOps, Quiescent: true}
	}
	return async.StepOutcome[[]float64]{Publish: true, Data: w.row(p, step+1), Bytes: payloadBytes, Ops: noopOps}
}

func (w *noopWorkload) Checkpoint(p int) (any, int64) { return w.done[p], payloadBytes }
func (w *noopWorkload) Restore(p int, state any)      { w.done[p] = state.(int) }

func (w *noopWorkload) Residual(p int) float64 {
	left := w.steps - w.done[p]
	if left < 0 {
		left = 0
	}
	return float64(left) / float64(w.steps)
}

// check verifies one finished run against the script: every partition
// published each scripted version exactly once, the engine's step
// counts agree with the calls the workload saw, every snapshot carried
// the right payload, and a bounded run kept its staleness bound.
func (w *noopWorkload) check(st *async.RunStats, bound int) error {
	if !st.Converged {
		return fmt.Errorf("did not converge")
	}
	if want := int64(w.parts * w.steps); st.Publishes != want {
		return fmt.Errorf("%d publishes, script has %d", st.Publishes, want)
	}
	var calls int64
	for p, n := range st.PerWorkerSteps {
		if n <= w.steps {
			return fmt.Errorf("partition %d ran %d steps, script has %d and a quiescent one", p, n, w.steps)
		}
		calls += int64(w.calls[p])
	}
	if calls != st.Steps+st.LostSteps {
		return fmt.Errorf("workload saw %d step calls, engine reports %d steps and %d replayed", calls, st.Steps, st.LostSteps)
	}
	if w.bad != 0 {
		return fmt.Errorf("%d snapshots carried the wrong payload", w.bad)
	}
	if bound >= 0 && st.MaxLead > bound {
		return fmt.Errorf("lead %d exceeds staleness bound %d", st.MaxLead, bound)
	}
	return nil
}

// newNoopInputs builds the inputs of the sched_* workloads from the seed:
// the no-op workload on 64 partitions and the cluster model it runs on.
func newNoopInputs(seed uint64, z size) (*noopWorkload, cluster.Config) {
	cfg := *cluster.EC2LargeCluster()
	cfg.Seed = seed
	return newNoopWorkload(seed, 64, z.of(2000)), cfg
}

// plainNoopRun times one checked DES run of w with every hook nil at the
// default staleness bound, and reports host nanoseconds per step: what
// the scheduler costs where the step body is free.
func plainNoopRun(w *noopWorkload, cfg *cluster.Config) (float64, error) {
	w.reset()
	t0 := time.Now()
	st, err := async.Run(cluster.New(cfg), w, async.Options{Staleness: defaultStaleness})
	if err != nil {
		return 0, err
	}
	ns := float64(time.Since(t0)) / float64(st.Steps)
	return ns, w.check(st, defaultStaleness)
}
