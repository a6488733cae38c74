package async

// The live executor: real partition compute on a work-stealing pool.
//
// Where DES and the speculative parallel executor *draw* every step's
// cost from the cluster model, the live executor actually runs the
// workload's Step functions on a fixed goroutine pool
// (internal/workpool: per-worker sharded run queues + work stealing)
// and *measures* costs as monotonic wall-clock deltas. The versioned
// store, the partition model with its gate, input read, unseen-input,
// publish-lag and sampling rules (part.go), and the adaptive controllers
// are reused unchanged — they only ever see simtime.Duration timestamps,
// which here hold real elapsed seconds since the run started instead of
// virtual time. What this file adds is what measuring needs: the
// partition state machine below, waits booked as pool parks and timer
// wakes, and the engine mutex in place of a scheduling goroutine.
//
// One piece of the cluster model is kept, in real time: publish
// visibility. A publication becomes visible at
//
//	elapsed + LiveNetScale × AsyncPushCost(bytes)
//
// so readers observe it only after the modeled network push, enforced
// against the same real clock the run is measured on. That is what the
// paper's thesis is about — synchronous execution serializes on
// communication latency while asynchronous execution overlaps it — and
// it is what makes the lockstep-vs-free-running gap measurable even
// when compute alone saturates the machine. LiveNetScale = 0 turns the
// emulation off (pure compute); the presets ship 1 (full model
// latency).
//
// Unlike DES and the parallel executor, a live run is NOT
// deterministic: step interleaving, measured durations, and adaptive
// decisions depend on real scheduling. DES stays the correctness
// oracle — monotone workloads (CC, SSSP) reach the identical fixed
// point exactly, contractive ones (PageRank, K-Means) within the
// convergence tolerance (asynctest.CheckLiveMatchesDES). The crash
// fault model is virtual-time machinery (deterministic Poisson
// schedules, priced recovery) and is rejected in live mode.
//
// Concurrency design. Every partition is in exactly one state —
// runnable (queued or executing, at most one task in flight), timed
// (parked in a wake heap), blocked (in a neighbor's gate-waiter list),
// idle, or forced — and every transition happens under one engine
// mutex. Workload compute and store publications run outside the
// mutex; a single timer goroutine (the executor's second sanctioned
// goroutine besides the pool) serves the wake heap. Publications reach
// the store *before* the mutex section that wakes readers, and an
// idling partition re-checks for unseen versions inside the same
// locked section that parks it, so no wakeup can be lost. Wall-clock
// reads and the resulting calls into scheduling-goroutine-only code
// are sanctioned per function via //async:measured (see
// internal/lint): the engine mutex provides the serialization that
// goroutine confinement provides elsewhere.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// Live partition states; see the package comment in this file. All
// state transitions happen under liveScheduler.mu.
const (
	liveRunnable = iota // queued in the pool or executing (one task in flight)
	liveTimed           // parked in the wake heap until a known real time
	liveBlocked         // parked in a neighbor's gate-waiter list
	liveIdle            // quiescent with no unseen input (settled)
	liveForced          // stopped by MaxSteps (settled)
)

// livePart is what the live state machine adds to the shared partition
// model (part.go). The counter fields at the bottom — and the part's
// version, steps and quiescent — are written only by the partition's own
// task (partitions are single-flight) and folded into RunStats after
// the pool has been closed, so they need no synchronization of their
// own; the state-machine fields, and the rest of the part, are guarded
// by liveScheduler.mu.
type livePart struct {
	*part
	state int
	// waitStart is the real time a gate wait began (-1 when none);
	// waitMeasured marks the blocked-on-a-laggard case whose duration is
	// only known at release (adapt.Controller.AddWaitTime).
	waitStart    simtime.Duration
	waitMeasured bool
	// lastPubAt clamps publication visibility times to be non-decreasing
	// (the store's invariant) when a fast step outruns the previous
	// publication's modeled network delay.
	lastPubAt simtime.Duration

	ops          int64
	compute      simtime.Duration
	publishes    int64
	pushedBytes  int64
	gateWaits    int64
	gateWaitTime simtime.Duration
	maxLead      int
}

// liveScheduler satisfies Scheduler[D] degenerately: the first Admit
// call runs the whole concurrent execution to quiescence and reports
// the event queue drained, so Drive proceeds straight to Finish. The
// phase methods in between are never invoked.
type liveScheduler[D any] struct {
	c        *cluster.Cluster
	cfg      *cluster.Config
	w        Workload[D]
	opt      Options
	maxSteps int
	netScale float64
	store    *Store[D]
	ctrl     *adapt.Controller
	inbuf    [][]Snapshot[D]
	pts      []part
	parts    []*livePart
	pool     *workpool.Pool[int]
	rec      *trace.Recorder

	start time.Time // monotonic run origin; all timestamps are offsets from it

	mu         sync.Mutex
	nSettled   int // partitions with part.settled set
	timed      simtime.EventHeap
	timerKick  chan struct{}
	quit       chan struct{}
	done       chan struct{}
	doneClosed bool
	runErr     error
	endAt      simtime.Duration

	ran      bool
	stopOnce sync.Once
	timerWG  sync.WaitGroup
	stats    *RunStats
	totalOps int64

	// Metrics sampling (Options.Series). The sampler tick rides the
	// timed-wake heap with the out-of-band ID len(parts) — the heap's
	// IDs are otherwise partition indices — on a real-time grid of
	// sampleEvery seconds from the run origin. Unlike DES/parallel the
	// live series is NOT deterministic (it observes real interleaving);
	// Sample.Time is the grid time, Sample.Wall the measured wall
	// offset. The counters below are updated in runPart's locked tail
	// (lp.steps/lp.publishes are written outside the mutex and may not
	// be read by the sampler) and read by sampleLocked; they and the
	// sampler are guarded by mu.
	smp    *sampler[D]
	sSteps int64
	sPubs  int64
}

// newLiveScheduler validates the workload and options and builds the
// engine: version 0 of every partition is published visible at time
// zero, every partition starts runnable, and the pool is sized at
// min(opt.Workers or GOMAXPROCS, partitions).
//
//async:sched-root
func newLiveScheduler[D any](c *cluster.Cluster, w Workload[D], opt Options) (*liveScheduler[D], error) {
	pts, inbuf, err := newParts(w)
	if err != nil {
		return nil, err
	}
	n := len(pts)
	cfg := c.Config()
	if cfg.CrashMTTF > 0 {
		return nil, fmt.Errorf("async: the live executor does not support the crash fault model (CrashMTTF %v); crash schedules and recovery pricing are virtual-time machinery — run DES or parallel", cfg.CrashMTTF)
	}
	if opt.Checkpoint != nil && opt.Checkpoint != recovery.None() {
		return nil, fmt.Errorf("async: the live executor does not support checkpoint policies (%v); run DES or parallel", opt.Checkpoint)
	}
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	s := &liveScheduler[D]{
		c:         c,
		cfg:       cfg,
		w:         w,
		opt:       opt,
		maxSteps:  maxSteps,
		netScale:  cfg.LiveNetScale,
		store:     NewStore[D](n),
		ctrl:      newController(opt, n),
		inbuf:     inbuf,
		pts:       pts,
		parts:     make([]*livePart, n),
		timerKick: make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		stats:     &RunStats{Converged: true},
	}
	states := make([]livePart, n)
	for p := range states {
		states[p] = livePart{part: &pts[p], waitStart: -1}
		s.parts[p] = &states[p]
	}
	for p := range s.parts {
		data, _ := w.Init(p)
		if err := s.store.Publish(p, 0, 0, data); err != nil {
			return nil, err
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	s.pool = workpool.New(workers, s.runPart)
	s.smp = newSampler(opt.Series, w, s.store, pts, s.ctrl)
	s.rec = opt.Trace
	if rec := s.rec; rec != nil {
		// Steal attribution: the hook runs on the stealing worker's
		// goroutine before the item does; the wall stamp the recorder
		// applies places the migration on the timeline. No items are
		// queued yet, so the hook is installed race-free.
		s.pool.SetStealHook(func(w, p int) {
			rec.Emit(trace.KindSteal, p, -1, 0, int64(w), 0, 0)
		})
	}
	return s, nil
}

// now returns the real time elapsed since the run started, in the same
// simtime.Duration unit (seconds) every store timestamp and stat uses.
//
//async:measured — the live executor's clock IS the wall clock.
func (s *liveScheduler[D]) now() simtime.Duration {
	return simtime.Duration(time.Since(s.start).Seconds())
}

// pushDelay is the emulated network visibility delay of one
// publication: the cluster model's push cost scaled by LiveNetScale,
// applied in real time. Pure pricing — safe from any pool worker per
// the cluster's concurrency contract.
func (s *liveScheduler[D]) pushDelay(bytes int64) simtime.Duration {
	if s.netScale == 0 {
		return 0
	}
	return simtime.Duration(float64(s.c.AsyncPushCost(bytes)) * s.netScale)
}

// Admit runs the whole live execution on its first call and reports
// the queue drained; see liveScheduler.
//
//async:sched-only
func (s *liveScheduler[D]) Admit() (int, bool) {
	if !s.ran {
		s.ran = true
		s.runLive()
	}
	return -1, false
}

// runLive stamps the run origin, starts the timer goroutine, enqueues
// every partition, and blocks until the run settles or fails, then
// stops the pool so Finish can fold unsynchronized counters.
//
//async:measured — stamps the monotonic run origin all measurements are offsets of.
func (s *liveScheduler[D]) runLive() {
	s.start = time.Now()
	s.rec.StartWall()
	if s.smp != nil {
		// Setup sample at grid time 0, then the first tick on the wake
		// heap — pushed before the timer goroutine starts, so no kick is
		// needed.
		s.mu.Lock()
		s.sampleLocked(0)
		s.timed.Push(s.smp.every, len(s.parts))
		s.mu.Unlock()
	}
	s.timerWG.Add(1)
	//async:pool — the executor's one goroutine besides the workpool: the timed-wake server.
	go s.timerLoop()
	for p := range s.parts {
		s.pool.Submit(p)
	}
	<-s.done
	s.shutdown()
}

// shutdown stops the timer goroutine and the pool. Idempotent; also
// reached via Close for schedulers that were never driven.
func (s *liveScheduler[D]) shutdown() {
	s.stopOnce.Do(func() {
		close(s.quit)
		s.timerWG.Wait()
		s.pool.Close()
	})
}

// Close releases the pool and timer; see Scheduler.
func (s *liveScheduler[D]) Close() { s.shutdown() }

// Gate, Execute, Publish, and Advance are never reached: Admit runs
// the whole live execution and immediately reports the queue drained,
// so Drive skips its phase body entirely.
//
//async:sched-only
func (s *liveScheduler[D]) Gate(p int) bool { return false }

//async:sched-only
func (s *liveScheduler[D]) Execute(p int) (StepOutcome[D], error) {
	return StepOutcome[D]{}, fmt.Errorf("async: executor bug: live Execute(%d) reached; live runs entirely inside Admit", p)
}

//async:sched-only
func (s *liveScheduler[D]) Publish(p int, out StepOutcome[D]) error {
	return fmt.Errorf("async: executor bug: live Publish(%d) reached; live runs entirely inside Admit", p)
}

//async:sched-only
func (s *liveScheduler[D]) Advance(p int, out StepOutcome[D]) {}

// runPart executes one step attempt for partition p on pool worker w:
// settle wait accounting, gate, read inputs (all under the engine
// mutex), run the workload step with the clock running (no locks),
// publish with emulated network visibility, then advance the partition
// state machine. Non-quiescent partitions re-enqueue on the same
// worker's queue so its warm scratch is reused; work stealing migrates
// them only when the worker backs up.
//
//async:measured — measures step compute by wall clock; the engine mutex serializes the sched-only controller calls.
func (s *liveScheduler[D]) runPart(w, p int) {
	lp := s.parts[p]
	s.mu.Lock()
	if s.runErr != nil || lp.state == liveForced {
		s.mu.Unlock()
		return
	}
	if lp.waitStart >= 0 {
		waited := s.now() - lp.waitStart
		lp.gateWaitTime += waited
		if lp.waitMeasured {
			s.ctrl.AddWaitTime(p, waited)
		}
		s.rec.Emit(trace.KindGateRelease, p, lp.steps, lp.waitStart+waited, -1, 0, 0)
		lp.waitStart = -1
	}
	if bound := s.ctrl.Bound(p); bound >= 0 && s.gateLocked(p, bound) {
		s.mu.Unlock()
		return // parked timed or blocked; a wake re-runs the gate
	}
	buf := s.inbuf[p]
	t := s.now()
	lead, blind := readInputs(s.store, s.pts, lp.part, t, buf)
	if blind >= 0 {
		s.failLocked(fmt.Errorf("async: partition %d invisible to %d at %v", blind, p, t))
		s.mu.Unlock()
		return
	}
	lp.maxLead = max(lp.maxLead, lead)
	s.mu.Unlock()

	s.rec.Emit(trace.KindStepStart, p, lp.steps, t, 0, 0, 0)
	t0 := time.Now()
	out, err := runStep(s.w, p, lp.steps, buf)
	dc := simtime.Duration(time.Since(t0).Seconds())
	lp.compute += dc
	if err != nil {
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
		return
	}
	lp.steps++
	lp.quiescent = out.Quiescent
	lp.ops += out.Ops
	s.rec.Emit(trace.KindStepEnd, p, lp.steps-1, t+dc, 0, 0, dc)

	if out.Publish {
		pubAt := s.now()
		visAt := pubAt + s.pushDelay(out.Bytes)
		if visAt < lp.lastPubAt {
			visAt = lp.lastPubAt
		}
		lp.lastPubAt = visAt
		lp.version++
		// The publication must be in the store before the locked wake
		// section below: an idling partition's unseen-version check and
		// this wake both run under mu, so whichever orders second sees
		// the other's effect and no wakeup is lost.
		if err := s.store.Publish(p, lp.version, visAt, out.Data); err != nil {
			s.mu.Lock()
			s.failLocked(err)
			s.mu.Unlock()
			return
		}
		lp.publishes++
		lp.pushedBytes += out.Bytes
		s.rec.Emit(trace.KindPublish, p, lp.steps-1, pubAt, int64(lp.version), out.Bytes, visAt-pubAt)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runErr != nil {
		return
	}
	if s.smp != nil {
		// Mirror the step into the mutex-guarded sampling counters:
		// lp.steps/lp.publishes above are written outside mu and may not
		// be read by the sampler. The residual cache is refreshed here —
		// p's step is complete and single-flight, so the read is safe.
		s.sSteps++
		if out.Publish {
			s.sPubs++
		}
		s.smp.observe(p)
	}
	if out.Publish {
		for _, r := range lp.readers {
			if s.parts[r].state == liveIdle {
				s.parts[r].settled = false
				s.nSettled--
				s.parkOrRunLocked(r, lp.lastPubAt, -1)
			}
		}
		s.releaseWaitersLocked(lp)
	}
	lag := 0
	if s.ctrl.NeedsLag() {
		lag = publishLag(s.store, lp.part)
	}
	if s.ctrl.StepDone(p, out.Publish, lag) {
		s.rec.Emit(trace.KindAdaptBound, p, lp.steps, s.now(), int64(s.ctrl.Bound(p)), 0, 0)
	}
	switch {
	case lp.steps >= s.maxSteps:
		s.forceLocked(p)
	case !out.Quiescent:
		s.pool.SubmitLocal(w, p)
	default:
		if at, unseen := firstUnseen(s.store, lp.part); unseen {
			s.parkOrRunLocked(p, at, w)
		} else {
			s.idleLocked(p)
		}
	}
}

// gateLocked applies the staleness bound to p at the current real
// time and books the wait the shared gate asks for: a version that
// exists but is not yet visible parks p in the wake heap until its
// visibility time (wait priced at booking); a version that does not
// exist yet blocks p on the laggard neighbor (wait measured at
// release). Reports whether p was parked. Caller holds s.mu.
//
//async:measured — gate bookings run on pool workers; the engine mutex serializes the controller.
func (s *liveScheduler[D]) gateLocked(p, bound int) bool {
	lp := s.parts[p]
	need := lp.version - bound
	t := s.now()
	q, visAt, exists := gate(s.store, s.pts, lp.part, t, need)
	if q < 0 {
		return false
	}
	lp.gateWaits++
	lp.waitStart = t
	lp.waitMeasured = !exists
	s.rec.Emit(trace.KindGateBegin, p, lp.steps, t, int64(q), int64(need), 0)
	var booked simtime.Duration
	if exists {
		booked = visAt - t
	}
	if s.ctrl.GateWait(p, booked) {
		s.rec.Emit(trace.KindAdaptBound, p, lp.steps, t, int64(s.ctrl.Bound(p)), 0, 0)
	}
	if exists {
		// Published but still inside its modeled network delay.
		s.parkTimedLocked(p, visAt)
	} else {
		lp.state = liveBlocked
		s.pts[q].gateWaiters = append(s.pts[q].gateWaiters, p)
	}
	return true
}

// parkOrRunLocked makes p runnable now or parks it in the wake heap
// until at, whichever the clock says. w >= 0 re-enqueues on that
// worker's own queue. Caller holds s.mu.
func (s *liveScheduler[D]) parkOrRunLocked(p int, at simtime.Duration, w int) {
	if at <= s.now() {
		s.parts[p].state = liveRunnable
		if w >= 0 {
			s.pool.SubmitLocal(w, p)
		} else {
			s.pool.Submit(p)
		}
		return
	}
	s.parkTimedLocked(p, at)
}

// parkTimedLocked parks p in the wake heap and kicks the timer so it
// re-arms if at precedes its current deadline. Caller holds s.mu. The
// wake heap is the DES's sched-only event queue; here it is serialized
// under s.mu instead of a scheduling goroutine, hence the waiver.
//
//async:measured
func (s *liveScheduler[D]) parkTimedLocked(p int, at simtime.Duration) {
	s.parts[p].state = liveTimed
	s.timed.Push(at, p)
	select {
	case s.timerKick <- struct{}{}:
	default:
	}
}

// releaseWaitersLocked wakes every partition blocked on lp after it
// published or settled. Premature wakes just re-gate and re-block,
// exactly like the core's releaseGateWaiters; the measured wait is
// settled when the released partition's task actually runs. Waiters
// released by a publication wake at its visibility time. Caller holds
// s.mu.
func (s *liveScheduler[D]) releaseWaitersLocked(lp *livePart) {
	for _, r := range lp.gateWaiters {
		s.parkOrRunLocked(r, lp.lastPubAt, -1)
	}
	lp.gateWaiters = lp.gateWaiters[:0]
}

// idleLocked settles p as idle, releasing its gate waiters (idle
// partitions impose no gate). Caller holds s.mu.
func (s *liveScheduler[D]) idleLocked(p int) {
	lp := s.parts[p]
	lp.state, lp.settled = liveIdle, true
	s.nSettled++
	s.releaseWaitersLocked(lp)
	s.checkDoneLocked()
}

// forceLocked settles p at the step cap: the run will report
// Converged=false, the store seals the partition against further
// publishes, and gate waiters are released (forced partitions impose no
// gate). Caller holds s.mu.
func (s *liveScheduler[D]) forceLocked(p int) {
	lp := s.parts[p]
	lp.state, lp.settled = liveForced, true
	s.nSettled++
	s.store.Seal(p)
	s.releaseWaitersLocked(lp)
	s.checkDoneLocked()
}

// failLocked records the first engine error and unblocks the run; pool
// tasks check runErr and drain without touching state. Caller holds
// s.mu.
func (s *liveScheduler[D]) failLocked(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
	s.closeDoneLocked()
}

// checkDoneLocked ends the run once every partition has settled.
// Caller holds s.mu.
//
//async:measured — stamps the run's measured makespan at quiescence.
func (s *liveScheduler[D]) checkDoneLocked() {
	if s.nSettled == len(s.parts) {
		s.endAt = s.now()
		s.closeDoneLocked()
	}
}

func (s *liveScheduler[D]) closeDoneLocked() {
	if !s.doneClosed {
		s.doneClosed = true
		close(s.done)
	}
}

// sampleLocked records one time-series sample at grid time at. Caller
// holds s.mu, which guards every input: the sampling counters, the
// sampler's residual cache, gate-wait sums (written under mu in
// runPart's locked head), consumed versions, and the controller
// (Store.Latest and the pool gauges are safely concurrent on their own).
//
//async:measured — stamps Sample.Wall; recorded only, never branched on.
func (s *liveScheduler[D]) sampleLocked(at simtime.Duration) {
	smp := metrics.Sample{Time: at, Wall: float64(s.now()), Steps: s.sSteps, Publishes: s.sPubs,
		QueueDepth: s.pool.Queued(), Steals: s.pool.Steals()}
	for _, lp := range s.parts {
		smp.GateWait += lp.gateWaitTime
	}
	s.smp.record(smp)
}

// timerLoop serves the wake heap: it sleeps until the earliest parked
// partition's wake time, re-enqueues due partitions, and re-arms. A
// kick on timerKick (a new earliest entry) or quit (shutdown)
// interrupts the sleep.
//
//async:measured — converts heap deadlines to real timer sleeps.
func (s *liveScheduler[D]) timerLoop() {
	defer s.timerWG.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for {
		var sleep time.Duration = -1
		s.mu.Lock()
		for {
			ev, ok := s.timed.Peek()
			if !ok {
				break
			}
			d := ev.At - s.now()
			if d > 0 {
				sleep = time.Duration(float64(d) * float64(time.Second))
				break
			}
			s.timed.Pop()
			if ev.ID >= len(s.parts) {
				// Sampler tick (out-of-band ID): record and re-arm on the
				// grid. The run's end stops the chain; the final boundary
				// sample comes from Finish at endAt.
				if s.runErr == nil && !s.doneClosed && s.smp != nil {
					s.stats.SeriesTicks++
					s.sampleLocked(ev.At)
					s.timed.Push(ev.At+s.smp.every, len(s.parts))
				}
				continue
			}
			if s.runErr == nil && s.parts[ev.ID].state == liveTimed {
				s.parts[ev.ID].state = liveRunnable
				s.pool.Submit(ev.ID)
			}
		}
		s.mu.Unlock()
		if sleep < 0 {
			select {
			case <-s.timerKick:
				continue
			case <-s.quit:
				return
			}
		}
		timer.Reset(sleep)
		select {
		case <-timer.C:
		case <-s.timerKick:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-s.quit:
			return
		}
	}
}

// Finish folds the per-partition counters (quiescent since the pool
// closed) into the run's stats and the cluster's metrics, and advances
// the cluster clock by the measured makespan — in measured-cost mode
// the simulated clock tracks real elapsed time. See Scheduler.
//
//async:sched-only
func (s *liveScheduler[D]) Finish() (*RunStats, error) {
	if !s.ran {
		return nil, fmt.Errorf("async: live Finish without Admit")
	}
	if s.runErr != nil {
		return nil, s.runErr
	}
	if s.nSettled != len(s.parts) {
		return nil, fmt.Errorf("async: executor bug: live run ended with %d of %d partitions settled", s.nSettled, len(s.parts))
	}
	for p := range s.parts {
		s.store.Seal(p)
	}
	stats := s.stats
	if s.smp != nil {
		// Final boundary sample at the measured makespan. The pool and
		// timer are stopped, so the mutex is uncontended; it is taken for
		// the memory edge to the sampler counters.
		s.mu.Lock()
		s.sampleLocked(s.endAt)
		s.mu.Unlock()
		stats.SeriesSamples = s.smp.n
	}
	for _, lp := range s.parts {
		stats.Steps += int64(lp.steps)
		stats.Publishes += lp.publishes
		stats.PushedBytes += lp.pushedBytes
		stats.GateWaits += lp.gateWaits
		stats.GateWaitTime += lp.gateWaitTime
		stats.LiveComputeTime += lp.compute
		if lp.maxLead > stats.MaxLead {
			stats.MaxLead = lp.maxLead
		}
		if lp.state == liveForced || !lp.quiescent {
			stats.Converged = false
		}
		s.totalOps += lp.ops
	}
	stats.Duration = s.endAt
	stats.LiveSteals = s.pool.Steals()
	s.c.Account(func(m *cluster.Metrics) {
		m.AsyncLiveSteps += stats.Steps
		m.AsyncLiveSteals += stats.LiveSteals
	})
	finishRun(s.c, s.ctrl, s.pts, stats, s.totalOps)
	return stats, nil
}
