package async

import (
	"sync"

	"repro/internal/trace"
	"repro/internal/workpool"
)

// parallelScheduler is the wall-clock-parallel executor: it drives the
// same sequential phase loop as the DES (so virtual-time ordering,
// stochastic draws, and all bookkeeping stay identical), but runs
// Workload.Step calls early on the shared goroutine pool (workpool) and
// keeps the ones that turn out to have read what the event-ordered read
// reads. Only an Undoable workload gets one: NewScheduler runs any other
// on the DES core.
//
// Validate, don't prove. At every Admit the executor tops the
// speculations in flight up to specWindow × pool-size, handing the
// earliest pending step events that have none to the pool (FIFO) with
// the neighbor versions visible at the event's time *now*. Nothing shows
// those versions final: a neighbor whose own event comes first may yet
// publish one the step should have read. So when the event pops, Execute
// makes the canonical event-ordered read exactly as the DES does and
// compares version vectors. Equal: the pool's result is the result (Step
// is a function of the step index, the inputs and the partition's state,
// and a partition is single-flight, so the state was the same too).
// Unequal: the speculation is discarded — waited for, queued or running,
// and undone (Undoable.Restore) — and the step runs inline on the
// canonical inputs. Correctness rests on that comparison alone: no
// property of the cost model, the crash model or the staleness
// controller is assumed.
//
// Dispatch and verdict are decided on the scheduling goroutine from
// virtual-time state only, so Speculated, SpecDiscarded and SpecDepth
// repeat run for run whatever the pool's timing was; pricing, publication
// and every stochastic draw happen later, on that goroutine, in exact
// event order.
type parallelScheduler[D any] struct {
	*core[D]
	undo Undoable[D]
	pool *workpool.Pool[*spec[D]]
	// spec[p] is partition p's speculation in flight, nil when it has none
	// (a worker's steps run one at a time, in step order); idle holds the
	// slots that are not in flight. There are specWindow × pool-size
	// slots, and a slot keeps its buffers — the undo buffer included — from
	// one partition's speculation to the next, so a dispatch allocates
	// nothing once they have grown to the largest partition.
	spec, idle []*spec[D]
	early      []int // speculate's scratch: the next dispatches, earliest event first
}

// specWindow is how many speculations are kept in flight per pool
// goroutine: one leaves the pool idle while the scheduling goroutine
// prices and publishes, a deep window reads further ahead of the
// publications to come and discards more (EXPERIMENTS.md "PR 18").
const specWindow = 3

type spec[D any] struct {
	p        int
	step     int           // the worker step index the speculation ran
	inputs   []Snapshot[D] // dispatch buffer, parallel to neighbors
	versions []int         // input versions used, parallel to neighbors
	undo     any           // the state before the step (Undoable.SaveUndo)
	out      StepOutcome[D]
	err      error
	done     sync.WaitGroup
}

//async:sched-root
func newParallelScheduler[D any](k *core[D], undo Undoable[D]) *parallelScheduler[D] {
	n := k.poolSize()
	s := &parallelScheduler[D]{core: k, undo: undo, spec: make([]*spec[D], len(k.workers))}
	deg := 0
	for _, st := range k.workers {
		deg = max(deg, len(st.neighbors))
	}
	s.early, s.idle = make([]int, 0, specWindow*n), make([]*spec[D], 0, specWindow*n)
	for range cap(s.idle) {
		s.idle = append(s.idle, &spec[D]{inputs: make([]Snapshot[D], deg), versions: make([]int, deg)})
	}
	k.onCrash = s.crashed
	s.pool = workpool.New(n, func(_ int, sp *spec[D]) {
		sp.undo = undo.SaveUndo(sp.p, sp.undo)
		sp.out, sp.err = runStep(k.w, sp.p, sp.step, sp.inputs)
		sp.done.Done()
	})
	return s
}

// Admit tops up the speculation window, then pops the next event exactly
// as the DES does.
//
//async:sched-only
func (s *parallelScheduler[D]) Admit() (int, bool) {
	s.speculate()
	return s.core.Admit()
}

// speculate fills the room left in the window with the earliest pending
// step events that have no speculation in flight yet (ties to the lower
// partition): one pass over the timed partitions, inserting into a list
// that short.
//
//async:sched-only
func (s *parallelScheduler[D]) speculate() {
	room := len(s.idle)
	if room == 0 {
		return
	}
	early := s.early[:0]
	for p := range s.parts {
		if s.parts[p].state != timed || s.spec[p] != nil {
			continue
		}
		i := len(early)
		if i < room {
			early = append(early, p)
		} else if i--; s.pendingAt[p] >= s.pendingAt[early[i]] {
			continue
		}
		for ; i > 0 && s.pendingAt[early[i-1]] > s.pendingAt[p]; i-- {
			early[i] = early[i-1]
		}
		early[i] = p
	}
	for _, p := range early {
		s.dispatch(p)
	}
}

// dispatch hands partition p's pending step to the pool with the
// neighbor versions visible at its event time as of now — unless the
// staleness gate would hold the step back on those versions: what it will
// read once the gate lets it through is not published yet.
//
//async:sched-only
func (s *parallelScheduler[D]) dispatch(p int) {
	st, sp, t := s.workers[p], s.idle[len(s.idle)-1], s.pendingAt[p]
	if bound := s.ctrl.Bound(p); bound >= 0 {
		if nb, _, _ := gate(s.store, s.parts, st.part, t, st.version-bound); nb >= 0 {
			return
		}
	}
	sp.inputs, sp.versions = sp.inputs[:len(st.neighbors)], sp.versions[:len(st.neighbors)]
	if _, blind := readInputs(s.store, s.parts, st.part, t, sp.inputs, sp.versions); blind >= 0 {
		return // the canonical read will fail the run; nothing to run early
	}
	s.spec[p], s.idle = sp, s.idle[:len(s.idle)-1]
	sp.p, sp.step, sp.err = p, st.steps, nil
	sp.done.Add(1)
	depth := cap(s.idle) - len(s.idle)
	s.stats.SpecDepth = max(s.stats.SpecDepth, depth)
	s.rec.Emit(trace.KindSpecDispatch, p, sp.step, t, int64(depth), 0, 0)
	s.pool.Submit(sp)
}

// Execute commits p's speculation iff the canonical input read — made here
// in event order, exactly as under DES, into p's inline buffer (the spec's
// may still be in the pool's hands) — consumes the versions it ran on;
// otherwise the speculation is discarded and the step runs inline, as when
// there was none (the read is idempotent: the inline path makes it again).
//
//async:sched-only
func (s *parallelScheduler[D]) Execute(p int) (StepOutcome[D], error) {
	sp, st := s.spec[p], s.workers[p]
	if sp == nil {
		return s.core.Execute(p)
	}
	if _, err := s.readInputs(p); err != nil {
		return StepOutcome[D]{}, err
	}
	for j, v := range st.consumed {
		if v != sp.versions[j] {
			s.discard(p, st.neighbors[j], v, sp.versions[j])
			return s.core.Execute(p)
		}
	}
	sp.done.Wait()
	out, err := sp.out, sp.err
	s.retire(sp)
	if err != nil {
		return StepOutcome[D]{}, err
	}
	s.rec.Emit(trace.KindSpecCommit, p, sp.step, st.clock, 0, 0, 0)
	s.began(p, st.clock)
	s.stepped(p, out)
	s.stats.Speculated++
	return out, nil
}

// discard takes back partition p's in-flight speculation, if any: it is
// waited for, queued or running, and undone; its outcome — a recovered
// panic included — goes with it. nb is the neighbor the canonical read
// found at version read where the speculation had used version used; -1
// when the discard has another cause (p crashed, or the run ended).
//
//async:sched-only
func (s *parallelScheduler[D]) discard(p, nb, read, used int) {
	sp := s.spec[p]
	if sp == nil {
		return
	}
	sp.done.Wait()
	s.undo.Restore(p, sp.undo)
	s.retire(sp)
	s.stats.SpecDiscarded++
	s.rec.Emit(trace.KindSpecInvalidate, p, sp.step, s.workers[p].clock, int64(nb), int64(read)<<32|int64(used), 0)
}

// retire ends sp's flight, committed or discarded.
//
//async:sched-only
func (s *parallelScheduler[D]) retire(sp *spec[D]) {
	s.spec[sp.p], s.idle = nil, append(s.idle, sp)
}

// crashed is the core's onCrash hook: recovery restores and replays p's
// state on the scheduling goroutine, so p's speculation goes first.
//
//async:sched-only
func (s *parallelScheduler[D]) crashed(p int) { s.discard(p, -1, 0, 0) }

// drain discards whatever is still in flight: nothing after a clean run,
// but an aborted run (a failed step or crash replay) or a caller that
// stopped driving the phases leaves some.
//
//async:sched-only
func (s *parallelScheduler[D]) drain() {
	for p := range s.spec {
		s.discard(p, -1, 0, 0)
	}
}

// Finish drains before anyone reads the partitions.
//
//async:sched-only
func (s *parallelScheduler[D]) Finish() (*RunStats, error) {
	s.drain()
	return s.core.Finish()
}

// Close drains the speculations and the goroutine pool, both idempotent:
// once it returns no pool goroutine touches workload state and no
// discarded step has left a mark on it.
//
//async:sched-root
func (s *parallelScheduler[D]) Close() {
	s.drain()
	s.pool.Close()
}
