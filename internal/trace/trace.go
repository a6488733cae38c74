// Package trace is the deterministic structured-event layer of the
// asynchronous runtime: a preallocated ring-buffer Recorder the
// scheduler core and all three executors emit typed events into —
// step start/end, gate-wait begin/release with the blocking neighbor
// and awaited version, publish + visibility, speculation
// dispatch/commit/invalidate, crash/recovery/checkpoint, adaptive
// bound changes, and live-executor steals — each stamped with virtual
// time and (when StartWall armed the recorder, as the live executor
// does) monotonic wall time.
//
// Tracing is inert by construction: hook sites only *read* engine
// state and append into this external buffer. Emit draws no
// randomness, performs no allocation in steady state (the buffer is
// carved up front and wraps), and never feeds anything back into
// scheduling decisions, so a run's RunStats and converged state are
// bit-identical with the recorder on or off — a contract enforced by
// asynctest's TestDifferential on every workload. A nil *Recorder is the
// off switch: every method is nil-safe, so instrumented hot paths pay
// one predictable branch.
//
// The wall-clock reads that stamp Event.Wall live behind the
// //async:measured annotation, which waives the determinism analyzer's
// wall-clock rule for exactly one function; here the observed time is
// only ever *recorded*, never consulted.
//
//async:deterministic
package trace

import (
	"sync"
	"time"

	"repro/internal/simtime"
)

// Kind discriminates trace events.
type Kind uint8

const (
	// KindNone is the zero Kind; no real event carries it.
	KindNone Kind = iota
	// KindStepStart marks a worker step beginning at Vt (the step's
	// canonical read time). Step is the per-partition step index.
	KindStepStart
	// KindStepEnd marks the step's completion at Vt (the post-pricing
	// clock); Dur is the step's priced (DES/parallel) or measured
	// (live) duration.
	KindStepEnd
	// KindGateBegin marks a staleness-gate wait booked at Vt. Arg1 is
	// the blocking neighbor partition and Arg2 the awaited version.
	KindGateBegin
	// KindGateRelease marks the matching release at Vt (the waiter's
	// wake time). Arg1 is the neighbor that published/settled.
	KindGateRelease
	// KindPublish marks version Arg1 of the partition entering the
	// store with Arg2 payload bytes; Dur is the visibility delay
	// (zero under DES/parallel, the modeled push latency under live).
	KindPublish
	// KindSpecDispatch marks the parallel executor handing the step to
	// the speculation pool at event time Vt.
	KindSpecDispatch
	// KindSpecCommit marks a speculated result consumed canonically.
	KindSpecCommit
	// KindSpecInvalidate marks a speculation discarded. Arg1 is the
	// neighbor whose version the canonical read found moved on (-1: the
	// partition crashed or the run ended under it) and Arg2 packs the two
	// versions, the one read shifted left 32 bits over the one speculated on.
	KindSpecInvalidate
	// KindCrash marks a worker-crash event striking at Vt.
	KindCrash
	// KindRecovery marks the restore+replay completing at Vt; Dur is
	// the priced recovery time and Arg1 the journaled steps replayed.
	KindRecovery
	// KindCheckpoint marks a checkpoint commit at Vt; Dur is the
	// priced write and Arg1 the checkpoint bytes.
	KindCheckpoint
	// KindAdaptBound marks the staleness controller changing the
	// partition's bound; Arg1 is the new bound in force.
	KindAdaptBound
	// KindSteal marks the live executor admitting partition Part's step
	// on pool worker Arg1, not the worker of its previous step.
	KindSteal
	kindCount // number of kinds; keep last
)

var kindNames = [kindCount]string{
	KindNone:           "none",
	KindStepStart:      "step-start",
	KindStepEnd:        "step-end",
	KindGateBegin:      "gate-begin",
	KindGateRelease:    "gate-release",
	KindPublish:        "publish",
	KindSpecDispatch:   "spec-dispatch",
	KindSpecCommit:     "spec-commit",
	KindSpecInvalidate: "spec-invalidate",
	KindCrash:          "crash",
	KindRecovery:       "recovery",
	KindCheckpoint:     "checkpoint",
	KindAdaptBound:     "adapt-bound",
	KindSteal:          "steal",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// Event is one trace record. It is flat and pointer-free so the ring
// buffer is a single allocation and appends never escape to the heap.
type Event struct {
	Kind Kind
	// Part is the partition (= worker) the event belongs to.
	Part int32
	// Step is the partition's step index at the event (-1 when not
	// tied to a step, e.g. steals).
	Step int32
	// Vt is the event's virtual timestamp — under the live executor,
	// elapsed real seconds since the run started (its time base).
	Vt simtime.Duration
	// Wall is elapsed monotonic wall time since StartWall, stamped by
	// the recorder itself; zero unless wall stamping is armed (the
	// live executor arms it).
	Wall simtime.Duration
	// Arg1, Arg2 carry kind-specific payload (see the Kind docs).
	Arg1, Arg2 int64
	// Dur is the kind-specific duration (step cost, recovery time,
	// checkpoint write, publish visibility delay).
	Dur simtime.Duration
}

// DefaultCapacity is the ring capacity CLI and harness recorders use:
// large enough to hold every event of the recorded experiment scales,
// ~15 MiB when full.
const DefaultCapacity = 1 << 18

// Recorder is a fixed-capacity ring buffer of Events. All methods are
// safe on a nil receiver (the disabled fast path) and safe for
// concurrent use (the live executor's pool workers emit directly).
// Once the ring is full the oldest events are overwritten; Dropped
// reports how many.
type Recorder struct {
	mu     sync.Mutex
	buf    []Event
	n      uint64 // total events ever emitted
	wall   bool
	origin time.Time
}

// NewRecorder returns a recorder with the given ring capacity
// (clamped to at least 1). The buffer is carved up front: steady-state
// Emit performs no allocation.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// StartWall arms wall-time stamping: subsequent events carry elapsed
// monotonic time since this call in Event.Wall. The live executor
// calls it at run start so its traces carry both time domains.
//
//async:measured
func (r *Recorder) StartWall() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.wall = true
	r.origin = time.Now()
	r.mu.Unlock()
}

// Emit appends one event. Nil-safe: the disabled path is a single
// branch, so hook sites call it unconditionally. The wall read (only
// when armed) stamps the record and influences nothing.
//
//async:measured
func (r *Recorder) Emit(kind Kind, part, step int, vt simtime.Duration, arg1, arg2 int64, dur simtime.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	var wall simtime.Duration
	if r.wall {
		wall = simtime.Duration(time.Since(r.origin).Seconds())
	}
	r.buf[r.n%uint64(len(r.buf))] = Event{
		Kind: kind,
		Part: int32(part),
		Step: int32(step),
		Vt:   vt,
		Wall: wall,
		Arg1: arg1,
		Arg2: arg2,
		Dur:  dur,
	}
	r.n++
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped reports how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the retained events, oldest first, as a fresh slice.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n <= uint64(len(r.buf)) {
		out := make([]Event, r.n)
		copy(out, r.buf[:r.n])
		return out
	}
	head := int(r.n % uint64(len(r.buf)))
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[head:]...)
	out = append(out, r.buf[:head]...)
	return out
}
