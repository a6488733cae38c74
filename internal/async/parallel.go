package async

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// parallelScheduler is the wall-clock-parallel executor: it drives the
// same sequential phase loop as the DES (so virtual-time ordering,
// stochastic draws, and all bookkeeping stay identical), but pre-executes
// Workload.Step calls on a pool of real goroutines whenever
// dependency-aware admission proves them independent.
//
// The admission rule is per-edge, not global. Let L be the cluster's
// AsyncPublishFloor (a lower bound on the virtual latency of any state
// publication — every publishing step pays at least
// minStragglerFactor × (AsyncSyncOverhead + NetLatency)). A pending step
// of partition p at time t only ever reads the partitions p depends on
// (Workload.Neighbors(p)), so only *their* future publications can
// change what it reads. For each such neighbor q, the earliest virtual
// time a new version of q can become visible is bounded below by
//
//	q has a pending event at tq:  tq + L   (q steps no earlier than tq)
//	q is blocked or idle:          E + L   (q must first be rescheduled
//	                                        by an event, all of which
//	                                        are at ≥ E, the frontier)
//	q was force-stopped:           +∞      (q never publishes again)
//
// The step is admitted for speculation iff t < bound(q) for every
// neighbor q: everything it will read is already final. Partitions with
// distant or settled dependencies speculate arbitrarily deep — the
// window no longer collapses on clusters with a tiny publish floor
// (HPC), which is what made the old global rule (t < E + L for every
// step) degenerate.
//
// Admission is re-evaluated incrementally, not by heap rescans: the core
// marks a partition dirty whenever its own pending event or one of its
// dependencies transitions (scheduled, published, gate-blocked, idled,
// forced — see core.schedule/markReaders), and Admit drains the dirty
// list. Steps whose admission failed only on the frontier-dependent
// bound are parked on frontierStalled and retried when the frontier
// advances. All bounds are monotone in simulation progress, so a step
// once admitted stays admissible; the version-vector check in Execute
// still verifies every speculation against the canonical event-ordered
// read and fails the run loudly on any violation.
//
// The staleness gate is evaluated once per admitted step: admission
// makes the neighbor versions visible at t final, so gate certainty
// (every requirement covered without leaning on the idle/settled
// exemptions, which can still flip) is decided at admission time. Steps
// that rely on an exemption simply fall back to inline execution.
//
// Speculation never touches the cluster RNG, the event heap, worker
// bookkeeping, or the metrics: pricing and publication happen later, on
// the scheduling goroutine, in exact event order. Workload.Step for a
// given partition only ever runs one-at-a-time and in step order (each
// worker has at most one pending event), so per-partition user state
// needs no locking. The result: identical virtual-time output, with the
// dominant cost — real user compute — overlapped across cores.
type parallelScheduler[D any] struct {
	*core[D]
	floor simtime.Duration
	tasks chan *spec[D]
	wg    sync.WaitGroup
	// specs[p] is partition p's speculation slot. Each worker has at most
	// one pending event, hence at most one in-flight speculation; the
	// slot's input/version buffers are allocated once and reused across
	// dispatches, keeping the speculated path allocation-free apart from
	// the per-dispatch done channel.
	specs []spec[D]
	// frontierStalled parks partitions whose admission failed on the
	// frontier-dependent bound; they are re-marked dirty when the
	// frontier advances past lastFrontier.
	frontierStalled []int
	inStalled       []bool
	lastFrontier    simtime.Duration
	started         bool
	outstanding     int // dispatched but not yet consumed speculations
	closed          bool
}

// spec is one partition's (reusable) speculative step slot. The done
// WaitGroup is reused across dispatches — Add happens on the scheduling
// goroutine strictly after the previous Wait returned — so a dispatch
// allocates nothing.
type spec[D any] struct {
	p        int
	active   bool
	step     int           // the worker step index the speculation ran
	inputs   []Snapshot[D] // dispatch buffer, parallel to neighbors
	versions []int         // input versions used, parallel to neighbors
	out      StepOutcome[D]
	err      error
	done     sync.WaitGroup
}

//async:sched-root
func newParallelScheduler[D any](k *core[D]) *parallelScheduler[D] {
	n := k.opt.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(k.workers) {
		n = len(k.workers)
	}
	s := &parallelScheduler[D]{
		core:  k,
		floor: k.c.AsyncPublishFloor(),
		// One slot per partition: each worker has at most one in-flight
		// speculation, so sends never block the scheduling loop.
		tasks:     make(chan *spec[D], len(k.workers)),
		specs:     make([]spec[D], len(k.workers)),
		inStalled: make([]bool, len(k.workers)),
	}
	for p := range s.specs {
		deg := len(k.workers[p].neighbors)
		s.specs[p] = spec[D]{p: p, inputs: make([]Snapshot[D], deg), versions: make([]int, deg)}
	}
	// Enable incremental speculation tracking and seed the worklist with
	// the startup events (scheduled by newCore before track was set).
	k.track = true
	for p := range k.workers {
		k.markDirty(p)
	}
	// A crash invalidates the crashed worker's own in-flight
	// speculation: its inputs were read at the pre-crash event time,
	// while the recovered worker executes at its later clock, where more
	// neighbor versions may be visible. (Crashes only ever delay
	// publications, so every *other* speculation's admission bound stays
	// sound.) The core calls this before recovery touches worker state,
	// so replay never runs concurrently with the worker's own Step.
	k.onCrash = s.invalidate
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		//async:pool — the executor's one sanctioned goroutine launch
		go func() {
			defer s.wg.Done()
			for sp := range s.tasks {
				sp.out, sp.err = runStep(s.w, sp.p, sp.step, sp.inputs)
				sp.done.Done()
			}
		}()
	}
	return s
}

// Admit drains the speculation worklist, then pops the next event
// exactly as the DES does.
//
//async:sched-only
func (s *parallelScheduler[D]) Admit() (int, bool) {
	s.speculate()
	return s.core.Admit()
}

// speculate re-evaluates admission for every partition marked dirty
// since the last pass, dispatching each step it can prove independent.
//
//async:sched-only
func (s *parallelScheduler[D]) speculate() {
	head, ok := s.heap.Peek()
	if !ok || s.floor <= 0 {
		return
	}
	if !s.started || head.At > s.lastFrontier {
		s.started = true
		s.lastFrontier = head.At
		// The frontier moved: parked frontier-bound admissions may pass.
		for _, p := range s.frontierStalled {
			s.inStalled[p] = false
			s.markDirty(p)
		}
		s.frontierStalled = s.frontierStalled[:0]
	}
	for len(s.dirty) > 0 {
		p := s.dirty[len(s.dirty)-1]
		s.dirty = s.dirty[:len(s.dirty)-1]
		s.inDirty[p] = false
		s.tryDispatch(p, head.At)
	}
}

// tryDispatch applies the dependency-aware admission rule to partition
// p's pending step and hands it to the pool when it passes.
//
//async:sched-only
func (s *parallelScheduler[D]) tryDispatch(p int, frontier simtime.Duration) {
	sp := &s.specs[p]
	if sp.active || !s.pending[p] {
		return
	}
	st := s.workers[p]
	t := s.pendingAt[p]
	if st.clock > t {
		// Defensive: a worker's clock beyond its pending event would
		// make the canonical read happen later than t, invalidating any
		// inputs read here. Crash recovery upholds clock <= pendingAt by
		// rescheduling (core.handleCrash), so this cannot fire today; if
		// a future path breaks the invariant, fall back to inline
		// execution rather than mis-speculating.
		return
	}
	for _, q := range st.neighbors {
		qs := s.workers[q]
		if qs.forced {
			continue // never publishes again
		}
		if s.pending[q] {
			if t >= s.pendingAt[q]+s.floor {
				// q's pending step may publish a version visible at or
				// before t. q's event precedes t, so q transitions before
				// p's step runs inline, and every transition re-marks p.
				return
			}
		} else if t >= frontier+s.floor {
			// q is blocked or idle: it can publish no earlier than the
			// frontier plus the floor. Park p until the frontier moves.
			if !s.inStalled[p] {
				s.inStalled[p] = true
				s.frontierStalled = append(s.frontierStalled, p)
			}
			return
		}
	}
	// Admission passed: every version visible at t is final, so the gate
	// verdict is final too. A gate that would need the idle/settled
	// exemption runs inline instead. The bound read here is the bound
	// the canonical gate will read when the event pops: the staleness
	// controller only moves a worker's bound while processing that
	// worker's own phases, never while its event is pending — the
	// monotonic-safety contract that keeps speculation valid under
	// dynamic S (a cut between dispatch and pop is impossible by
	// construction).
	if bound := s.ctrl.Bound(p); bound >= 0 && !s.gateCertain(st, t, bound) {
		return
	}
	for j, q := range st.neighbors {
		v, ok := s.store.VisibleFrom(q, t, st.cursors[j])
		if !ok {
			return // startup race impossible by construction; run inline
		}
		st.cursors[j] = v
		s.store.fill(&sp.inputs[j], q, v)
		sp.versions[j] = v
	}
	sp.active = true
	sp.step = st.steps
	sp.err = nil
	sp.done.Add(1)
	s.outstanding++
	if s.outstanding > s.stats.SpecDepth {
		s.stats.SpecDepth = s.outstanding
	}
	s.rec.Emit(trace.KindSpecDispatch, p, sp.step, t, int64(s.outstanding), 0, 0)
	s.tasks <- sp
}

// gateCertain reports whether p's staleness gate at time t passes
// without leaning on the idle/forced exemptions: admission has made the
// visible versions final, but the exemptions can still flip as workers
// settle. bound is the worker's controller bound in force at dispatch
// (= at the canonical gate; see tryDispatch).
//
//async:sched-only
func (s *parallelScheduler[D]) gateCertain(st *workerState, t simtime.Duration, bound int) bool {
	need := st.version - bound
	if need <= 0 {
		return true
	}
	for j, nb := range st.neighbors {
		v, ok := s.store.VisibleFrom(nb, t, st.cursors[j])
		if !ok || v < need {
			return false
		}
		st.cursors[j] = v
	}
	return true
}

// Execute consumes p's pre-executed step when one exists, re-running the
// canonical input read (consumption and staleness-lead accounting happen
// in event order, exactly as under DES) and verifying the speculation
// saw the same input versions. The canonical read goes to p's inline
// input buffer, idle while a speculation is outstanding, and stays off
// the spec's, which the pool goroutine may still be using. Without a
// speculation, the step runs inline.
//
//async:sched-only
func (s *parallelScheduler[D]) Execute(p int) (StepOutcome[D], error) {
	sp := &s.specs[p]
	if !sp.active {
		return s.core.Execute(p)
	}
	sp.active = false
	s.outstanding--
	st := s.workers[p]
	if sp.step != st.steps {
		return StepOutcome[D]{}, fmt.Errorf("async: executor bug: partition %d speculated step %d, replaying step %d", p, sp.step, st.steps)
	}
	if _, err := s.readInputs(p); err != nil {
		return StepOutcome[D]{}, err
	}
	for j, v := range st.consumed {
		if v != sp.versions[j] {
			return StepOutcome[D]{}, fmt.Errorf(
				"async: speculation admission violated: partition %d reads neighbor %d at version %d, speculation used %d",
				p, st.neighbors[j], v, sp.versions[j])
		}
	}
	sp.done.Wait()
	if sp.err != nil {
		return StepOutcome[D]{}, sp.err
	}
	s.rec.Emit(trace.KindSpecCommit, p, sp.step, st.clock, 0, 0, 0)
	s.noteStep(p, sp.out)
	s.stats.Speculated++
	return sp.out, nil
}

// invalidate discards partition p's in-flight speculation, if any:
// waits for the pool goroutine to finish with p's buffers (so recovery
// may safely restore and replay p's state) and drops the result.
//
//async:sched-only
func (s *parallelScheduler[D]) invalidate(p int) {
	sp := &s.specs[p]
	if !sp.active {
		return
	}
	sp.done.Wait()
	sp.active = false
	s.outstanding--
	s.rec.Emit(trace.KindSpecInvalidate, p, sp.step, s.pendingAt[p], 0, 0, 0)
}

// Finish checks that every speculation was consumed, then finalizes as
// the core does. A core error (a failed crash replay aborts the run
// from Admit) takes precedence: specs legitimately left in flight by
// the abort are not an executor bug, and core.Finish reports the real
// failure.
//
//async:sched-only
func (s *parallelScheduler[D]) Finish() (*RunStats, error) {
	if s.err == nil && s.outstanding != 0 {
		return nil, fmt.Errorf("async: executor bug: %d speculated steps never consumed", s.outstanding)
	}
	return s.core.Finish()
}

// Close drains the goroutine pool. After Close returns, no pool
// goroutine touches workload state — callers may reuse the workload's
// underlying data single-threadedly.
func (s *parallelScheduler[D]) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.tasks)
	s.wg.Wait()
}
