package async

// The virtual-time core: the phase loop's bookkeeping and the DES
// executor itself. Every phase, Workload.Step included, runs inline on
// the single scheduling goroutine in strict (At, Seq) event order. That
// makes the core the reference implementation of the Scheduler contract —
// the parallel executor (parallel.go) embeds it and must reproduce its
// virtual-time results exactly — and it preserves the original engine's
// behavior bit for bit: same event order, same stochastic draw order,
// same floating-point operation order. The crash fault model it carries
// is in faults.go.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// workerState is what virtual time adds to the shared partition model
// (part.go): the core's per-partition bookkeeping.
type workerState struct {
	*part
	clock simtime.Duration // the worker's local virtual clock
	// log is the worker's recovery journal (last checkpoint + steps
	// since); nil when the crash fault model is inert, so the crash-free
	// hot path carries no journaling cost.
	log *recovery.Log
}

// core is what virtual time adds to the run record both virtual-time
// executors drive: worker states, the event heap and pricing. All core
// methods run on the single scheduling goroutine; only Workload.Step may
// be offloaded (see parallel.go).
type core[D any] struct {
	run[D]
	workers []*workerState
	heap    simtime.EventHeap

	// pendingAt[p] is the time of worker p's one live event in the heap,
	// meaningful while p is timed: Admit tells an entry a crash-recovery
	// reschedule superseded by it, and the parallel executor picks the
	// earliest pending steps without scanning the heap.
	pendingAt []simtime.Duration

	// Crash fault model (inert — all nil/zero — unless the cluster sets
	// CrashMTTF or Options carry a checkpoint policy). Crash events ride
	// the same heap as step events, with IDs offset by the partition
	// count; stepEvents counts only step events so the run drains when
	// real work does, ignoring residual crashes. rw is the workload's
	// Recoverable view, plan the per-worker deterministic crash
	// schedule, policy the checkpoint cadence. err carries a failure
	// from crash handling (which runs inside Admit) to Finish. onCrash
	// lets the parallel executor take back the crashed worker's in-flight
	// speculation before recovery touches its state.
	rw         Recoverable[D]
	plan       *recovery.Plan
	policy     recovery.Policy
	stepEvents int
	err        error
	onCrash    func(p int)

	// sampleAt is the next sampler tick's virtual time (Options.Series).
	// Ticks do not ride the event heap: Admit fires every due tick before
	// popping an event — without touching stepEvents, the heap or its
	// sequence numbers, so the canonical event sequence is bit-identical
	// with or without a sampler on both executors. The sampler's residual
	// cache is refreshed at the canonical completed step (run.stepped), so
	// a parallel run's sampler reads the same values DES would even while
	// speculation runs workload steps early.
	sampleAt simtime.Duration
}

// newCore builds the run record (newRun) and performs startup. Workers
// pay one job launch (amortized over the whole run — the asynchronous
// runtime is a single long-lived job) plus their task start and input
// read before their first step.
//
//async:sched-root
func newCore[D any](c *cluster.Cluster, w Workload[D], opt Options) (*core[D], error) {
	r, inputBytes, err := newRun(c, w, opt)
	if err != nil {
		return nil, err
	}
	n := len(r.parts)
	r.adaptCost = r.cfg.AdaptCost
	k := &core[D]{
		run:       r,
		workers:   make([]*workerState, n),
		pendingAt: make([]simtime.Duration, n),
	}
	states := make([]workerState, n)
	for p := range states {
		states[p].part = &k.parts[p]
		k.workers[p] = &states[p]
	}

	// Crash fault model setup. The model is active when the cluster
	// schedules crashes or a checkpoint policy is set; either requires
	// the workload to expose Checkpoint/Restore.
	k.policy = opt.Checkpoint
	if k.policy == nil {
		k.policy = recovery.None()
	}
	k.plan = recovery.NewPlan(k.cfg.Seed, n, k.cfg.CrashMTTF)
	if k.plan.Enabled() || k.policy != recovery.None() {
		rw, ok := w.(Recoverable[D])
		if !ok {
			return nil, fmt.Errorf("async: crash recovery requested (MTTF %v, policy %s) but workload does not implement Recoverable",
				k.cfg.CrashMTTF, k.policy)
		}
		k.rw = rw
	}

	for p, st := range k.workers {
		start := k.cfg.TaskOverhead + c.DFSReadCost(inputBytes[p], true)
		start = simtime.Duration(float64(start) * c.StragglerFactor())
		st.clock = k.cfg.JobOverhead + start
		k.schedule(p, st.clock)
		if k.rw != nil {
			// Checkpoint 0 is the job input: already durable on the DFS,
			// so it costs nothing to "write". A worker crashing before
			// its first policy checkpoint restores this and replays from
			// step 0.
			state, ckptBytes := k.rw.Checkpoint(p)
			st.log = &recovery.Log{}
			st.log.Commit(state, ckptBytes, 0, st.clock, st.cursors, st.consumed)
		}
		if at, ok := k.plan.Next(p); ok {
			k.heap.Push(at, n+p) // crash events: IDs offset by n
		}
	}

	if k.smp != nil {
		k.sampleAt = k.smp.every // the first interior tick; newRun took the run-start sample
	}
	return k, nil
}

// schedule queues partition p's next event: p is timed until Admit pops
// it.
//
//async:sched-only
func (k *core[D]) schedule(p int, at simtime.Duration) {
	k.heap.Push(at, p)
	k.stepEvents++
	k.parts[p].state = timed
	k.pendingAt[p] = at
}

// wake books worker q's wake by p's publication or settling at p's clock
// at: an event at the later of the two clocks. A gate wait ends here, so
// its duration — unknowable at booking, when the awaited version did not
// exist — is counted and traced.
//
//async:sched-only
func (k *core[D]) wake(q, p int, at simtime.Duration) {
	w := k.workers[q]
	at = max(at, w.clock)
	if w.state == blocked {
		k.stats.GateWaitTime += at - w.clock
		k.rec.Emit(trace.KindGateRelease, q, w.steps, at, int64(p), 0, 0)
	}
	k.schedule(q, at)
}

// Admit pops the next due event; see Scheduler. Crash events (IDs
// offset by the partition count) are absorbed here, on the scheduling
// goroutine in event order, so both executors process every crash at
// the same point of the run. The loop drains when no *step* events
// remain: once every worker is idle or force-stopped the run is over,
// and residual crash events — a Poisson process never runs out — are
// discarded rather than ticking forever.
//
//async:sched-only
func (k *core[D]) Admit() (int, bool) {
	for {
		if k.stepEvents == 0 || k.err != nil {
			return -1, false
		}
		if k.smp != nil {
			// Fire every sampler tick due at or before the next event —
			// at a tie the sample is taken before the event processes —
			// and arm the next on the fixed grid. The chain lives in
			// sampleAt and never touches the heap, stepEvents or the
			// pending time, so sampling is inert; once the run drains,
			// the return above stops it.
			if head, ok := k.heap.Peek(); ok && k.sampleAt <= head.At {
				k.stats.SeriesTicks++
				k.smp.record(metrics.Sample{Time: k.sampleAt})
				k.sampleAt += k.smp.every
				continue
			}
		}
		ev := k.heap.Pop()
		if ev.ID >= len(k.workers) {
			k.handleCrash(ev.ID-len(k.workers), ev.At)
			continue
		}
		k.stepEvents--
		if ev.At != k.pendingAt[ev.ID] {
			// Stale entry superseded by a crash-recovery reschedule (the
			// heap supports no removal); the live entry carries the
			// worker's authoritative time in pendingAt.
			continue
		}
		st := k.workers[ev.ID]
		st.state = runnable
		if st.clock < ev.At {
			st.clock = ev.At
		}
		return ev.ID, true
	}
}

// Gate applies the staleness bound; see Scheduler and run.held. A wait
// on a version that exists is booked as an event at its visibility time
// (or later, when the controller's charge pushed the clock past it), and
// its duration is known at booking; a block on a laggard is measured when
// the laggard wakes the worker.
//
//async:sched-only
func (k *core[D]) Gate(p int) bool {
	st := k.workers[p]
	from := st.clock
	nb, at, exists := k.held(p, &st.clock, false)
	if nb < 0 {
		return true
	}
	if exists {
		k.stats.GateWaitTime += at - from
		at = max(at, st.clock)
		k.rec.Emit(trace.KindGateRelease, p, st.steps, at, int64(nb), 0, 0)
		k.schedule(p, at)
	}
	return false
}

// readInputs performs the canonical, event-ordered read of partition
// p's neighbors at p's clock into p's reusable input buffer, accounting
// the staleness lead.
//
//async:sched-only
func (k *core[D]) readInputs(p int) ([]Snapshot[D], error) {
	st := k.workers[p]
	lead, blind := readInputs(k.store, k.parts, st.part, st.clock, k.inbuf[p], st.consumed)
	if blind >= 0 {
		return nil, fmt.Errorf("async: partition %d invisible to %d at %v", blind, p, st.clock)
	}
	k.stats.MaxLead = max(k.stats.MaxLead, lead)
	return k.inbuf[p], nil
}

// Execute runs p's step inline on the scheduling goroutine; see
// Scheduler. The parallel executor overrides this to commit a valid
// speculation instead. Inline and committed steps alike reach the
// canonical step start and completion here, in event order: the step ran
// at p's clock, the pre-pricing event time.
//
//async:sched-only
func (k *core[D]) Execute(p int) (StepOutcome[D], error) {
	st := k.workers[p]
	inputs, err := k.readInputs(p)
	if err != nil {
		return StepOutcome[D]{}, err
	}
	out, err := runStep(k.w, p, st.steps, inputs)
	if err != nil {
		return StepOutcome[D]{}, err
	}
	k.began(p, st.clock)
	k.stepped(p, out)
	return out, nil
}

// Publish prices the step and makes its state visible; see Scheduler.
// The stochastic draws (straggler, failure replay) happen here, on the
// scheduling goroutine, in event order — that is what keeps every
// executor's virtual-time results identical. A publication wakes its
// idle readers and gate waiters at the publisher's clock; then a due
// checkpoint and the controller's step signal are charged to it.
//
//async:sched-only
func (k *core[D]) Publish(p int, out StepOutcome[D]) error {
	st := k.workers[p]
	d := k.c.ComputeCost(out.Ops)
	d += simtime.Duration(float64(out.LocalIters)) * k.cfg.LocalSyncOverhead
	if st.log != nil {
		// Journal the step for the crash fault model: the read time is
		// the pre-advance clock (Execute read the inputs there), and the
		// replay cost is the deterministic compute part of d — push and
		// stochastic scaling are excluded, since replay republishes
		// nothing and draws its own straggler factor.
		st.log.Record(st.steps-1, st.clock, d)
	}
	if out.Publish {
		d += k.c.AsyncPushCost(out.Bytes)
	}
	d = simtime.Duration(float64(d) * k.c.StragglerFactor())
	if attempts, wasted := k.c.TaskAttempts(); attempts > 1 {
		k.stats.Failures += attempts - 1
		d += simtime.Duration(wasted * float64(d))
	}
	st.clock += d
	k.rec.Emit(trace.KindStepEnd, p, st.steps-1, st.clock, 0, 0, d)

	if out.Publish {
		st.version++
		if err := k.store.Publish(p, st.version, st.clock, out.Data); err != nil {
			return err
		}
		for _, q := range k.published(p, st.clock, out.Bytes, 0) {
			k.wake(q, p, st.clock)
		}
	}
	k.maybeCheckpoint(p)
	k.signal(p, out.Publish, &st.clock)
	return nil
}

// Advance decides p's next move at the canonical settle point (run.next);
// see Scheduler. A worker that steps again is queued at its own clock or
// when its unseen input becomes visible, whichever is later; one that
// settled releases its gate waiters.
//
//async:sched-only
func (k *core[D]) Advance(p int, out StepOutcome[D]) {
	st := k.workers[p]
	at, woken, again := k.next(p, out)
	if again {
		k.schedule(p, max(at, st.clock))
		return
	}
	for _, q := range woken {
		k.wake(q, p, st.clock)
	}
}

// Finish ends the run at the latest worker clock; see Scheduler. The
// final sample there is monotone by construction: the last popped tick
// precedes the last step event, which bounds it from below.
//
//async:sched-only
func (k *core[D]) Finish() (*RunStats, error) {
	if k.err != nil {
		return nil, k.err
	}
	var latest simtime.Duration
	for _, st := range k.workers {
		latest = max(latest, st.clock)
	}
	return k.finish(latest, metrics.Sample{})
}

// Close implements Scheduler; the DES holds no executor resources.
func (k *core[D]) Close() {}
