package async

// The live executor: real partition compute on a work-stealing pool.
//
// Where DES and the speculative parallel executor *draw* every step's
// cost from the cluster model, the live executor actually runs the
// workload's Step functions on a fixed goroutine pool
// (internal/workpool: per-worker sharded run queues + work stealing)
// and *measures* costs as monotonic wall-clock deltas. The versioned
// store, the partition model with its gate, input read, unseen-input
// and sampling rules (part.go), and the adaptive controller
// are reused unchanged — they only ever see simtime.Duration timestamps,
// which here hold real elapsed seconds since the run started instead of
// virtual time. So are the canonical points of a partition's loop (gate
// hold, step start and completion, publish, bound change, controller
// signal, settle) and the partition state they move. What this file adds
// is what measuring needs: waits booked as pool parks and timer wakes,
// two clock reads around each step, and the engine mutex in place of a
// scheduling goroutine.
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
// latency). A partition parked on a publication still in flight wakes
// at its visibility time, not up to the runtime timer's millisecond
// later: the timer goroutine sleeps only until wakeMargin before the
// deadline and spins the rest (timerLoop). RunStats.LiveWakeLateTime
// reports the lateness that remains.
//
// Unlike DES and the parallel executor, a live run is NOT
// deterministic: step interleaving, measured durations, and adaptive
// decisions depend on real scheduling. DES stays the correctness
// oracle — monotone workloads (CC, SSSP) reach the identical fixed
// point exactly, contractive ones (PageRank, K-Means) within the
// convergence tolerance (asynctest's TestDifferential). The crash
// fault model is virtual-time machinery (deterministic Poisson
// schedules, priced recovery) and is rejected in live mode.
//
// Concurrency design. Every partition is in exactly one part.state —
// runnable (queued or executing, at most one task in flight), timed
// (parked in the wake heap), blocked (in a neighbor's gate-waiter list),
// idle, or forced — and every transition happens under one engine
// mutex. Workload compute and store publications run outside the
// mutex; a single timer goroutine (the executor's second sanctioned
// goroutine besides the pool) serves the wake heap. It hands each due
// partition to the pool with Submit (the next queue round-robin; an
// idle worker steals it from there if that queue is busy), as does
// every wake from another partition's task. Only a partition re-queued
// at the end of its own step, because it is not quiescent or already
// sees unseen input, goes to that worker's queue (SubmitLocal).
// Publications reach the store *before* the mutex section that wakes
// readers, and an idling partition re-checks for unseen versions inside
// the same locked section that parks it, so no wakeup can be lost.
// Wall-clock reads and the resulting calls into scheduling-goroutine-only
// code are sanctioned per function via //async:measured (see
// internal/lint): the engine mutex provides the serialization that
// goroutine confinement provides elsewhere.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// livePart is what measuring adds to the shared partition model
// (part.go). waitStart is guarded by liveExecutor.mu; lastPubAt, like
// the part's version, is touched only by the partition's own task
// (partitions are single-flight). The run's counters are the shared
// RunStats, which move only under the mutex.
type livePart struct {
	// waitStart is the real time a gate wait began (-1 when none); the
	// wait is measured when the released partition's task runs.
	waitStart simtime.Duration
	// lastPubAt clamps publication visibility times to be non-decreasing
	// (the store's invariant) when a fast step outruns the previous
	// publication's modeled network delay.
	lastPubAt simtime.Duration
}

// liveExecutor is one live run: the shared run record plus the pool and
// the timer that replace the event loop.
type liveExecutor[D any] struct {
	run[D]
	lps  []livePart
	pool *workpool.Pool[int]

	start time.Time // monotonic run origin; all timestamps are offsets from it

	// mu guards the partition states, the shared part bookkeeping other
	// partitions read (gateWaiters, cursors, consumed), the controller,
	// the run's stats and the sampler.
	mu         sync.Mutex
	timed      simtime.EventHeap
	timerKick  chan struct{}
	quit       chan struct{}
	done       chan struct{}
	doneClosed bool
	runErr     error
	endAt      simtime.Duration
	timerWG    sync.WaitGroup
}

// runLive runs the workload on the live executor: it builds the run
// record (version 0 of every partition visible at time zero, the
// run-start sample), stamps the run origin, starts the timer goroutine,
// enqueues every partition on a pool of min(opt.Workers or GOMAXPROCS,
// partitions) workers, and blocks until the run settles or fails. The
// sampler tick rides the timed-wake heap with the out-of-band ID
// len(parts) — the heap's IDs are otherwise partition indices — on a
// real-time grid from the run origin. Unlike DES/parallel the live series
// is NOT deterministic (it observes real interleaving); Sample.Time is
// the grid time, Sample.Wall the measured wall offset.
//
//async:measured — stamps the monotonic run origin all measurements are offsets of.
func runLive[D any](c *cluster.Cluster, w Workload[D], opt Options) (*RunStats, error) {
	if mttf := c.Config().CrashMTTF; mttf > 0 {
		return nil, fmt.Errorf("async: the live executor does not support the crash fault model (CrashMTTF %v); crash schedules and recovery pricing are virtual-time machinery — run DES or parallel", mttf)
	}
	if opt.Checkpoint != nil && opt.Checkpoint != recovery.None() {
		return nil, fmt.Errorf("async: the live executor does not support checkpoint policies (%v); run DES or parallel", opt.Checkpoint)
	}
	r, _, err := newRun(c, w, opt)
	if err != nil {
		return nil, err
	}
	n := len(r.parts)
	s := &liveExecutor[D]{
		run:       r,
		lps:       make([]livePart, n),
		timerKick: make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for p := range s.lps {
		s.lps[p].waitStart = -1
	}
	s.pool = workpool.New(s.poolSize(), s.runPart)
	if rec := s.rec; rec != nil {
		// Steal attribution: the hook runs on the stealing worker's
		// goroutine before the item does; the wall stamp the recorder
		// applies places the migration on the timeline. No items are
		// queued yet, so the hook is installed race-free.
		s.pool.SetStealHook(func(w, p int) {
			rec.Emit(trace.KindSteal, p, -1, 0, int64(w), 0, 0)
		})
	}

	s.start = time.Now()
	s.rec.StartWall()
	if s.smp != nil {
		// The first tick, pushed before the timer goroutine starts, so no
		// kick is needed.
		s.timed.Push(s.smp.every, n)
	}
	s.timerWG.Add(1)
	//async:pool — the package's one go statement: the live executor's timed-wake server.
	go s.timerLoop()
	for p := range s.lps {
		s.pool.Submit(p) // every partition starts runnable, the zero state
	}
	<-s.done
	close(s.quit)
	s.timerWG.Wait()
	s.pool.Close()
	if s.runErr != nil {
		return nil, s.runErr
	}
	// The pool and timer are stopped: nothing else touches the run. Its
	// duration is the measured makespan.
	s.stats.LiveSteals = s.pool.Steals()
	return s.finish(s.endAt, s.gauges())
}

// now returns the real time elapsed since the run started, in the same
// simtime.Duration unit (seconds) every store timestamp and stat uses.
//
//async:measured — the live executor's clock IS the wall clock.
func (s *liveExecutor[D]) now() simtime.Duration {
	return simtime.Duration(time.Since(s.start).Seconds())
}

// pushDelay is the emulated network visibility delay of one
// publication: the cluster model's push cost scaled by LiveNetScale,
// applied in real time. Pure pricing — safe from any pool worker per
// the cluster's concurrency contract.
func (s *liveExecutor[D]) pushDelay(bytes int64) simtime.Duration {
	if s.cfg.LiveNetScale == 0 {
		return 0
	}
	return simtime.Duration(float64(s.c.AsyncPushCost(bytes)) * s.cfg.LiveNetScale)
}

// runPart executes one step attempt for partition p on pool worker w,
// through the canonical points: under the engine mutex the gate hold,
// the gate wait's measured end once the gate admits the step, and the
// input read; with the clock running and no lock the step itself; then
// its publication with emulated network visibility; and under the mutex
// again the completed step, the publish, the controller's signal and the
// settle point. Non-quiescent partitions re-enqueue on the same worker's
// queue so its warm scratch is reused; work stealing migrates them only
// when the worker backs up.
//
//async:measured — measures step compute by wall clock; the engine mutex serializes the sched-only points.
func (s *liveExecutor[D]) runPart(w, p int) {
	pt, lp := &s.parts[p], &s.lps[p]
	s.mu.Lock()
	if s.runErr != nil || pt.state == forced {
		s.mu.Unlock()
		return
	}
	t := s.now()
	waiting := lp.waitStart >= 0
	if nb, at, exists := s.held(p, &t, waiting); nb >= 0 {
		// Parked timed, or blocked by the hold itself; a wake re-runs the
		// gate, and the task it admits measures the wait. A wake the gate
		// does not pass — the version waited on is not visible yet, say
		// because its writer settled, released its waiters and stepped
		// again — continues the wait.
		if !waiting {
			lp.waitStart = t
		}
		if exists {
			s.parkTimedLocked(p, at)
		}
		s.mu.Unlock()
		return
	}
	if waiting {
		s.stats.GateWaitTime += t - lp.waitStart
		s.rec.Emit(trace.KindGateRelease, p, pt.steps, t, -1, 0, 0)
		lp.waitStart = -1
	}
	buf := s.inbuf[p]
	lead, blind := readInputs(s.store, s.parts, pt, t, buf, pt.consumed)
	if blind >= 0 {
		s.failLocked(fmt.Errorf("async: partition %d invisible to %d at %v", blind, p, t))
		s.mu.Unlock()
		return
	}
	s.stats.MaxLead = max(s.stats.MaxLead, lead)
	s.mu.Unlock()

	s.began(p, t)
	t0 := time.Now()
	out, err := runStep(s.w, p, pt.steps, buf)
	dc := simtime.Duration(time.Since(t0).Seconds())
	if err != nil {
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
		return
	}
	s.rec.Emit(trace.KindStepEnd, p, pt.steps, t+dc, 0, 0, dc)

	var pubAt simtime.Duration
	if out.Publish {
		pubAt = s.now()
		lp.lastPubAt = max(pubAt+s.pushDelay(out.Bytes), lp.lastPubAt)
		pt.version++
		// The publication must be in the store before the locked wake
		// section below: an idling partition's unseen-version check and
		// this wake both run under mu, so whichever orders second sees
		// the other's effect and no wakeup is lost.
		if err := s.store.Publish(p, pt.version, lp.lastPubAt, out.Data); err != nil {
			s.mu.Lock()
			s.failLocked(err)
			s.mu.Unlock()
			return
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runErr != nil {
		return
	}
	s.stepped(p, out)
	s.stats.LiveComputeTime += dc
	if out.Publish {
		for _, q := range s.published(p, pubAt, out.Bytes, lp.lastPubAt-pubAt) {
			s.parkOrRunLocked(q, lp.lastPubAt, -1)
		}
	}
	t = s.now()
	s.signal(p, out.Publish, &t)
	at, woken, again := s.next(p, out)
	if again {
		s.parkOrRunLocked(p, at, w)
		return
	}
	// A settled partition releases its gate waiters at its last
	// publication's visibility time, and the last one to settle ends the
	// run.
	for _, q := range woken {
		s.parkOrRunLocked(q, lp.lastPubAt, -1)
	}
	for q := range s.parts {
		if !s.parts[q].settled() {
			return
		}
	}
	s.endAt = s.now()
	s.closeDoneLocked()
}

// parkOrRunLocked makes p runnable now or parks it in the wake heap
// until at, whichever the clock says. w >= 0 re-enqueues on that
// worker's own queue. Caller holds s.mu.
func (s *liveExecutor[D]) parkOrRunLocked(p int, at simtime.Duration, w int) {
	if at <= s.now() {
		s.parts[p].state = runnable
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
func (s *liveExecutor[D]) parkTimedLocked(p int, at simtime.Duration) {
	s.parts[p].state = timed
	s.timed.Push(at, p)
	select {
	case s.timerKick <- struct{}{}:
	default:
	}
}

// failLocked records the first engine error and unblocks the run; pool
// tasks check runErr and drain without touching state. Caller holds
// s.mu.
func (s *liveExecutor[D]) failLocked(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
	s.closeDoneLocked()
}

func (s *liveExecutor[D]) closeDoneLocked() {
	if !s.doneClosed {
		s.doneClosed = true
		close(s.done)
	}
}

// gauges is what only the live executor puts in a time-series sample:
// the wall stamp and the pool's queue depth and steals (safely
// concurrent on their own). The sampler reads the rest under s.mu.
//
//async:measured — stamps Sample.Wall; recorded only, never branched on.
func (s *liveExecutor[D]) gauges() metrics.Sample {
	return metrics.Sample{Wall: float64(s.now()), QueueDepth: s.pool.Queued(), Steals: s.pool.Steals()}
}

// wakeMargin is how long before a wake deadline timerLoop stops sleeping
// on the runtime timer and yield-spins instead. An idle Go scheduler
// polls its timers with 1 ms resolution, so a timer fires up to that
// late — longer than the sub-millisecond pushes LiveNetScale models at
// small scales. Two resolutions of slack leave every timer sleep ending
// before the deadline.
const wakeMargin = 2 * time.Millisecond

// timerLoop serves the wake heap: it re-enqueues due partitions and
// waits for the earliest remaining wake time — on the runtime timer until
// wakeMargin before it, then yield-spinning (runtime.Gosched hands the P
// to any runnable worker, so the spin only holds a P no worker is using)
// until the deadline itself. A kick on timerKick (a new earliest entry)
// or quit (shutdown) interrupts either wait. Nothing is woken before its
// time.
//
//async:measured — converts heap deadlines to real timer sleeps and spins.
func (s *liveExecutor[D]) timerLoop() {
	defer s.timerWG.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
serve:
	for {
		var next simtime.Duration = -1
		s.mu.Lock()
		for {
			ev, ok := s.timed.Peek()
			if !ok {
				break
			}
			now := s.now()
			if ev.At > now {
				next = ev.At
				break
			}
			s.timed.Pop()
			if ev.ID >= len(s.lps) {
				// Sampler tick (out-of-band ID): record and re-arm on the
				// grid. The run's end stops the chain; the final boundary
				// sample comes from finish at endAt.
				if s.runErr == nil && !s.doneClosed {
					s.stats.SeriesTicks++
					smp := s.gauges()
					smp.Time = ev.At
					s.smp.record(smp)
					s.timed.Push(ev.At+s.smp.every, len(s.lps))
				}
				continue
			}
			if s.runErr == nil && s.parts[ev.ID].state == timed {
				s.parts[ev.ID].state = runnable
				s.stats.LiveWakes++
				s.stats.LiveWakeLateTime += now - ev.At
				s.pool.Submit(ev.ID)
			}
		}
		s.mu.Unlock()
		if next < 0 {
			select {
			case <-s.timerKick:
				continue
			case <-s.quit:
				return
			}
		}
		if sleep := time.Duration(float64(next-s.now())*float64(time.Second)) - wakeMargin; sleep > 0 {
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
			continue
		}
		for s.now() < next {
			select {
			case <-s.timerKick:
				continue serve
			case <-s.quit:
				return
			default:
				runtime.Gosched()
			}
		}
	}
}
