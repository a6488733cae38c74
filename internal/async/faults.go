package async

// The virtual-time core's crash fault model (internal/recovery): crash
// events, restore and replay, and the checkpoint policy.

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// handleCrash processes one worker-crash event at virtual time at:
// worker p's in-memory partition state is lost and rebuilt by
// restore+replay against the durable store. Crashes take effect at step
// boundaries — a step spanning the crash instant completes first (its
// publication is already in the store), and recovery starts at the
// later of the crash time and the worker's clock. The recovered worker
// resumes exactly what it was doing: a pending step event is
// rescheduled at the recovered clock (so the step still reads exactly
// at the frontier — see below), a blocked or idle worker stays blocked
// or idle with its wake times pushed past recovery. Under the parallel
// executor the crashed worker's own speculation is taken back via the
// onCrash hook before state is touched (restore and replay need the
// partition to themselves); any other the delay makes stale is caught
// where all stale ones are, by the version comparison at its Execute.
//
//async:sched-only
func (k *core[D]) handleCrash(p int, at simtime.Duration) {
	st := k.workers[p]
	k.stats.Crashes++
	k.rec.Emit(trace.KindCrash, p, st.steps, at, 0, 0, 0)
	if st.state == forced {
		// The step cap already declared this partition dead to the run;
		// there is nothing to recover for.
		k.plan.Advance(p, at)
		k.scheduleCrash(p)
		return
	}
	if k.onCrash != nil {
		k.onCrash(p)
	}
	lg := st.log
	lost := lg.Lost()
	k.stats.LostSteps += int64(lost)

	// Restore: workload state back to the checkpoint, read bookkeeping
	// (cursors, consumed versions) rewound with it.
	k.rw.Restore(p, lg.Ckpt.State)
	copy(st.cursors, lg.Ckpt.Cursors)
	copy(st.consumed, lg.Ckpt.Consumed)

	// Replay: re-execute every journaled step against the store's
	// immutable history, re-reading each step's inputs at its original
	// read time. This rebuilds the exact pre-crash state (the same
	// determinism that lets Hadoop re-execute task attempts) and
	// re-advances the cursors; publications are NOT re-issued — they
	// survived in the store. Staleness-lead accounting is skipped: the
	// original execution already counted these reads.
	buf := k.inbuf[p]
	for _, rec := range lg.Steps {
		if _, q := readInputs(k.store, k.parts, st.part, rec.ReadAt, buf, st.consumed); q >= 0 {
			k.err = fmt.Errorf("async: replay of partition %d step %d cannot see neighbor %d at %v",
				p, rec.Step, q, rec.ReadAt)
			return
		}
		if _, err := runStep(k.w, p, rec.Step, buf); err != nil {
			k.err = fmt.Errorf("async: replay of partition %d: %w", p, err)
			return
		}
	}

	// Price the recovery: restart + checkpoint read + replay compute,
	// under one straggler draw (drawn here, on the scheduling goroutine,
	// in event order — executors stay identical).
	d := k.c.RestoreReadCost(lg.Ckpt.Bytes) + lg.ReplayCost()
	d = simtime.Duration(float64(d) * k.c.StragglerFactor())
	start := at
	if st.clock > start {
		start = st.clock
	}
	st.clock = start + d
	k.stats.Recoveries++
	k.stats.RecoveryTime += d
	k.rec.Emit(trace.KindRecovery, p, st.steps, st.clock, int64(lost), 0, d)

	// The journal is not truncated: recovery restores the same
	// checkpoint, so a second crash before the next checkpoint replays
	// this journal again (plus whatever follows) — the honest cost of a
	// sparse checkpoint cadence.
	if st.state == timed && k.pendingAt[p] < st.clock {
		// Recovery pushed the worker's clock past its pending event.
		// Executing at the old event would read at the recovered clock
		// while later events can still publish versions visible at or
		// before it — the event-ordered read would not be reproducible
		// (and replay would diverge). Reschedule at the recovered clock,
		// restoring the invariant that every step reads exactly at the
		// frontier; the superseded heap entry is discarded as stale when
		// popped (its time no longer matches pendingAt).
		k.schedule(p, st.clock)
	}
	k.plan.Advance(p, st.clock)
	k.scheduleCrash(p)
}

// scheduleCrash queues worker p's next crash event.
//
//async:sched-only
func (k *core[D]) scheduleCrash(p int) {
	if at, ok := k.plan.Next(p); ok {
		k.heap.Push(at, len(k.workers)+p)
	}
}

// maybeCheckpoint consults the run's checkpoint policy after a
// completed (and published, and waiter-released) step, and prices a
// checkpoint onto the worker's critical path when it is due: the
// partition must be quiescent while its state is captured, so the write
// delays the worker's next step. The checkpoint commit truncates the
// journal — the steps before it can never be lost again.
//
//async:sched-only
func (k *core[D]) maybeCheckpoint(p int) {
	st := k.workers[p]
	if st.log == nil || st.log.Lost() == 0 {
		return
	}
	if !k.policy.Due(st.steps - st.log.Ckpt.Step) {
		return
	}
	state, bytes := k.rw.Checkpoint(p)
	d := k.c.CheckpointWriteCost(bytes)
	st.clock += d
	k.stats.Checkpoints++
	k.stats.CheckpointTime += d
	k.rec.Emit(trace.KindCheckpoint, p, st.steps, st.clock, bytes, 0, d)
	st.log.Commit(state, bytes, st.steps, st.cursors, st.consumed)
}
