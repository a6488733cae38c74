// Package recovery is the worker-crash fault model of the asynchronous
// runtime: deterministic per-worker crash sampling, a checkpoint every
// K steps, and the per-worker journal that makes a crashed worker
// recoverable by deterministic replay.
//
// MapReduce's fault tolerance rests on deterministic re-execution of
// task attempts against durable input. The asynchronous runtime has the
// same substrate in a different shape: the versioned state store
// (async.Store) is durable and append-only, so a worker that loses its
// in-memory partition state can be rebuilt as
//
//	restore(last checkpoint) + replay(steps since the checkpoint)
//
// where each replayed step re-reads exactly the neighbor snapshots the
// original step consumed (the store's history is immutable, and the
// journal records each step's read time). Replay is therefore
// bit-identical to the lost execution — the same determinism argument
// that makes attempt re-execution safe in Hadoop.
//
// The package is engine-agnostic: it knows virtual time (simtime) and
// deterministic randomness (stats) but nothing about the scheduler. The
// async runtime owns the crash handling; this package owns the fault
// model's data: when workers crash (Plan), when they checkpoint
// (Policy), and what a recovery must replay (Log).
//
// The package is part of the deterministic engine core (crash schedules
// must be pure functions of the seed), so wall-clock reads, global
// randomness, and map-order iteration are forbidden here (enforced by
// internal/lint).
//
//async:deterministic
package recovery

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// crashSeedSalt decorrelates the crash-sampling RNG family from the
// cluster's scheduling-loop RNG, which is seeded with the raw
// Config.Seed. Crash times must not consume (or mirror) the straggler
// and failure stream: they are drawn per worker from split children so
// the crash schedule is a pure function of (seed, mttf, worker), never
// of execution order.
const crashSeedSalt = 0x5ca1ab1e0ddba11

// Plan is the deterministic crash schedule of one run: an independent
// Poisson process per worker, with exponentially distributed
// inter-crash times of the given mean (MTTF). Every worker draws from
// its own split RNG child, so the sequence of crash times for worker p
// depends only on the seed and p — not on how many draws other workers
// or the scheduling loop have made. That is what keeps the crash
// schedule identical across the DES and parallel executors, and stable
// when unrelated stochastic elements (stragglers, transient failures)
// are toggled.
type Plan struct {
	mttf simtime.Duration
	rngs []*stats.RNG
	next []simtime.Duration
}

// NewPlan builds the crash schedule for n workers. mttf <= 0 disables
// crashes: Next never fires (returns ok=false).
func NewPlan(seed uint64, n int, mttf simtime.Duration) *Plan {
	p := &Plan{mttf: mttf}
	if mttf <= 0 || n <= 0 {
		return p
	}
	base := stats.NewRNG(seed ^ crashSeedSalt)
	p.rngs = make([]*stats.RNG, n)
	p.next = make([]simtime.Duration, n)
	for w := 0; w < n; w++ {
		p.rngs[w] = base.Split()
		p.next[w] = p.draw(w, 0)
	}
	return p
}

// Enabled reports whether the plan schedules any crashes.
func (p *Plan) Enabled() bool { return p.rngs != nil }

// Next returns worker w's next crash time. ok is false when crashes are
// disabled. The returned time does not advance the plan; call Advance
// after the crash has been processed.
//
//async:sched-only
func (p *Plan) Next(w int) (at simtime.Duration, ok bool) {
	if p.rngs == nil {
		return 0, false
	}
	return p.next[w], true
}

// Advance moves worker w's schedule past the crash that just fired and
// returns the following crash time. The inter-crash gap is drawn from
// w's own stream; recovery time is excluded from the exposure (a worker
// being restored is not accumulating wear), which is why the gap is
// added to the later of the fired time and the recovered clock.
//
//async:sched-only
func (p *Plan) Advance(w int, recoveredAt simtime.Duration) simtime.Duration {
	p.next[w] = p.draw(w, recoveredAt)
	return p.next[w]
}

func (p *Plan) draw(w int, from simtime.Duration) simtime.Duration {
	return from + p.mttf*simtime.Duration(p.rngs[w].ExpFloat64())
}

// Policy decides when a worker checkpoints its partition state: every
// K completed steps, or never. The zero value is None. Due is consulted
// on the scheduling goroutine after every completed step with the
// number of steps since the last checkpoint; returning true makes the
// worker pay the checkpoint cost and reset the count.
type Policy struct{ k int }

// None never checkpoints: recovery restores the initial state (the job
// input, already durable on the DFS) and replays the worker's entire
// history. The zero-overhead, maximum-recovery-cost end of the trade.
func None() Policy { return Policy{} }

// EverySteps checkpoints after every k completed steps. k <= 0 is
// rejected at parse time; a direct construction with k <= 0 is None.
func EverySteps(k int) Policy { return Policy{max(k, 0)} }

// Due reports whether a checkpoint should be taken now.
func (p Policy) Due(stepsSince int) bool { return p.k > 0 && stepsSince >= p.k }

// String names the policy for figures and CLI round-trips.
func (p Policy) String() string {
	if p.k == 0 {
		return "none"
	}
	return fmt.Sprintf("steps:%d", p.k)
}

// ParsePolicy round-trips the CLI/figure spelling of a policy: "none"
// or "steps:K" (every K steps). A bare integer is shorthand for
// "steps:K".
func ParsePolicy(s string) (Policy, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "" || s == "none":
		return None(), nil
	case strings.HasPrefix(s, "steps:"):
		k, err := strconv.Atoi(s[len("steps:"):])
		if err != nil || k <= 0 {
			return None(), fmt.Errorf("recovery: bad checkpoint policy %q (want steps:K with K >= 1)", s)
		}
		return EverySteps(k), nil
	default:
		if k, err := strconv.Atoi(s); err == nil && k > 0 {
			return EverySteps(k), nil
		}
		return None(), fmt.Errorf("recovery: unknown checkpoint policy %q (want none, steps:K or K)", s)
	}
}

// StepRecord is one journal entry: what a recovery needs to replay one
// lost step. The store's immutable history supplies the data; the
// record supplies the coordinates.
type StepRecord struct {
	// Step is the worker step index that ran.
	Step int
	// ReadAt is the virtual time the step read its inputs (the worker's
	// clock at execution): replay re-reads each neighbor at exactly this
	// time, reproducing the original snapshots.
	ReadAt simtime.Duration
	// Cost is the step's deterministic compute price (user ops + local
	// sync barriers, before push and stochastic scaling): what a replay
	// re-pays. Push costs are excluded — replayed steps do not
	// republish; their publications already sit in the durable store.
	Cost simtime.Duration
}

// Checkpoint is one worker's durable restart point: the workload's
// opaque state snapshot plus the engine-side read bookkeeping
// (cursors/consumed) that replay rewinds and re-advances.
type Checkpoint struct {
	// State is whatever Workload.Checkpoint returned; the engine hands
	// it back verbatim on restore.
	State any
	// Bytes prices the checkpoint write and the recovery read.
	Bytes int64
	// Step is the worker's step count at the checkpoint.
	Step int
	// Cursors and Consumed are copies of the worker's per-neighbor read
	// cursors and consumed-version vector at the checkpoint.
	Cursors  []int
	Consumed []int
}

// Log is one worker's recovery journal: its latest checkpoint and the
// records of every step executed since. Recovery = Restore(Ckpt.State)
// + replay(Steps); a crash-free run with recovery disabled never
// allocates one.
type Log struct {
	Ckpt  Checkpoint
	Steps []StepRecord
}

// Record appends one executed step to the journal.
//
//async:sched-only
func (l *Log) Record(step int, readAt, cost simtime.Duration) {
	l.Steps = append(l.Steps, StepRecord{Step: step, ReadAt: readAt, Cost: cost})
}

// Lost returns how many steps a crash right now would lose (and replay).
func (l *Log) Lost() int { return len(l.Steps) }

// ReplayCost sums the deterministic compute cost of the journaled steps.
func (l *Log) ReplayCost() simtime.Duration {
	var d simtime.Duration
	for _, s := range l.Steps {
		d += s.Cost
	}
	return d
}

// Commit installs a new checkpoint and truncates the journal: steps
// before the checkpoint can never be lost again. The cursor/consumed
// slices are copied into the checkpoint's own backing arrays (reused
// across commits) so the hot path does not allocate per checkpoint
// after the first.
//
//async:sched-only
func (l *Log) Commit(state any, bytes int64, step int, cursors, consumed []int) {
	l.Ckpt.State = state
	l.Ckpt.Bytes = bytes
	l.Ckpt.Step = step
	l.Ckpt.Cursors = append(l.Ckpt.Cursors[:0], cursors...)
	l.Ckpt.Consumed = append(l.Ckpt.Consumed[:0], consumed...)
	l.Steps = l.Steps[:0]
}
