package async

// The partition model and the bounded-staleness rules every executor
// shares. What a partition has read, what it has published, who waits on
// it and what state it is in is one record (part) whichever executor runs
// it, and the rules over that record — when the gate holds a step back,
// what a step reads, when fresher input exists, how far a partition lags
// its inputs, what a time-series sample holds — are written here once, as
// plain functions over the store and the parts. So is the run record (run)
// around them: one set-up, one set of counters, one finish, and one copy
// of each canonical point of a partition's loop — a gate hold, a step
// start, a completed step, a publish, a bound change, the controller's
// step signal and a settle — each of which counts, traces, samples and
// consults the controller once and returns a verdict, never calling back
// into an executor. An executor adds only what differs: how a wait is
// booked (event-heap push, or pool park and timer), how a step is priced
// (cost model, or wall clock) and what serializes the bookkeeping (the
// scheduling goroutine, or the live engine mutex).

import (
	"fmt"
	"runtime"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// A partition's state: what it is doing or waiting for. Every executor
// keeps it in part.state; the canonical points below and the executor's
// wait booking are what move it.
const (
	// runnable: admitted and stepping (virtual time, between Admit and
	// Advance), or queued in the pool or executing (live).
	runnable = iota
	// timed: waiting for a known time — a step event in the virtual-time
	// event heap, or a seat in the live executor's wake heap.
	timed
	// blocked: a seat in a neighbor's gateWaiters, until that neighbor
	// publishes or settles.
	blocked
	// idle: settled, quiescent with no unseen input.
	idle
	// forced: settled, stopped at the step cap.
	forced
)

// part is one partition's executor-independent bookkeeping.
type part struct {
	neighbors []int // partitions read, in Workload.Neighbors order
	readers   []int // partitions that read this one (reverse-dependency index)
	consumed  []int // last version consumed, parallel to neighbors
	// cursors caches, per neighbor, the history index of the last version
	// this partition saw (Store.VisibleFrom). A partition's read times only
	// advance, so the cursor turns every visibility lookup into an O(1)
	// amortized forward scan instead of a binary search.
	cursors []int
	version int // publication counter; version 0 is the initial state
	steps   int // steps completed
	state   int // runnable, timed, blocked, idle or forced
	// gateWaiters lists partitions blocked until this one publishes a
	// version or settles.
	gateWaiters []int
}

// settled reports whether pt is idle or forced: it imposes no gate on its
// readers, and its newest version is its final state, so reading it at
// any age reads the freshest truth.
func (pt *part) settled() bool { return pt.state >= idle }

// newParts validates the workload's dependency graph and builds the
// partition model: topology, the reverse index, and one reusable step
// input buffer per partition (Step implementations must not retain it
// past the call). The per-neighbor bookkeeping of all partitions is
// carved from one slab per element type.
func newParts[D any](w Workload[D]) ([]part, [][]Snapshot[D], error) {
	n := w.Parts()
	if n <= 0 {
		return nil, nil, fmt.Errorf("async: workload has %d partitions", n)
	}
	parts := make([]part, n)
	readBy := make([]int, n) // how many partitions read each one
	edges := 0
	for p := range parts {
		nbrs := w.Neighbors(p)
		for _, q := range nbrs {
			if q < 0 || q >= n || q == p {
				return nil, nil, fmt.Errorf("async: partition %d has invalid neighbor %d", p, q)
			}
			readBy[q]++
		}
		parts[p].neighbors = nbrs
		edges += len(nbrs)
	}
	ints := make([]int, 3*edges)
	snaps := make([]Snapshot[D], edges)
	inbuf := make([][]Snapshot[D], n)
	take := func(n, max int) []int { // the slab's next max ints, the first n in use
		v := ints[:n:max]
		ints = ints[max:]
		return v
	}
	for p := range parts {
		pt, d := &parts[p], len(parts[p].neighbors)
		pt.consumed, pt.cursors, pt.readers = take(d, d), take(d, d), take(0, readBy[p])
		inbuf[p], snaps = snaps[:d:d], snaps[d:]
		for j := range pt.consumed {
			pt.consumed[j] = -1
		}
	}
	for p := range parts {
		for _, q := range parts[p].neighbors {
			parts[q].readers = append(parts[q].readers, p)
		}
	}
	return parts, inbuf, nil
}

// run is the one run record every executor embeds, by value so that a
// field access is one load off the executor's own pointer: what the run
// was asked for, the store and partition model it runs over, what
// observes it, and the stats it accumulates.
type run[D any] struct {
	c        *cluster.Cluster
	cfg      *cluster.Config
	w        Workload[D]
	opt      Options
	maxSteps int
	store    *Store[D]
	parts    []part
	// inbuf[p] is partition p's reusable step input buffer (see newParts).
	inbuf [][]Snapshot[D]
	ctrl  *adapt.Controller
	// rec is the optional structured-event recorder (Options.Trace).
	// Hooks call it unconditionally: a nil recorder is a single branch.
	rec      *trace.Recorder
	smp      *sampler[D] // Options.Series; nil = sampling off
	stats    *RunStats
	totalOps int64 // the run's user compute, added to the cluster's counter at finish
	// adaptCost is what a bound change costs on the partition's critical
	// path: the cluster's AdaptCost in virtual time, nothing under live.
	adaptCost simtime.Duration
	// woken is the publish and settle points' scratch for the partitions
	// to wake: all readers of one partition, so fewer than n.
	woken []int
}

// poolSize is the goroutine pool the parallel and live executors start:
// Options.Workers, else GOMAXPROCS, and never more than the partitions.
func (r *run[D]) poolSize() int {
	n := r.opt.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, len(r.parts))
}

// newRun validates the workload and builds the run record. Version 0 of
// every partition is published, visible at time zero (the job input
// already resides on the DFS), and the sampler records the run-start
// sample. A nil Options.Adapt is the static bound: adapt.Fixed is the
// identity controller, so the default path is bit-identical to an engine
// without one. inputBytes[p] is partition p's input size, which the
// virtual-time executors price as its start-up read.
//
//async:sched-root
func newRun[D any](c *cluster.Cluster, w Workload[D], opt Options) (r run[D], inputBytes []int64, err error) {
	parts, inbuf, err := newParts(w)
	if err != nil {
		return r, nil, err
	}
	n := len(parts)
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	pol := opt.Adapt
	if pol == nil {
		pol = adapt.Fixed(opt.Staleness)
	}
	r = run[D]{c: c, cfg: c.Config(), w: w, opt: opt, maxSteps: maxSteps, store: NewStore[D](n), parts: parts,
		inbuf: inbuf, ctrl: adapt.NewController(pol, n), rec: opt.Trace, stats: &RunStats{Converged: true},
		woken: make([]int, 0, n)}
	inputBytes = make([]int64, n)
	for p := range parts {
		var data D
		data, inputBytes[p] = w.Init(p)
		if err := r.store.Publish(p, 0, 0, data); err != nil {
			return r, nil, err
		}
	}
	if r.smp = newSampler(opt.Series, w, r.store, parts, r.ctrl, r.stats); r.smp != nil {
		r.smp.record(metrics.Sample{})
	}
	return r, inputBytes, nil
}

// finish is the tail every executor ends with, at the run's end time
// end. A drained run has every partition idle or forced: one still
// gate-blocked waits on a publication that will never come, which fails
// the run, and one still runnable or timed means the caller stopped
// driving the phases early, so the run did not converge. No partition
// publishes again, so the store is sealed; the final sample is recorded
// at end whether or not it lands on the tick grid, so the convergence
// curve always ends at the final state (last carries what only the
// executor knows: see sampler.record); the stats are completed from the
// partition model and the controller; and the run's compute operations
// are added to the cluster's counter.
//
//async:sched-only
func (r *run[D]) finish(end simtime.Duration, last metrics.Sample) (*RunStats, error) {
	stats := r.stats
	stats.PerWorkerSteps = make([]int, len(r.parts))
	for p := range r.parts {
		switch r.parts[p].state {
		case blocked:
			return nil, fmt.Errorf("async: partition %d still gate-blocked at drain", p)
		case runnable, timed:
			stats.Converged = false
		}
		r.store.Seal(p)
		stats.PerWorkerSteps[p] = r.parts[p].steps
	}
	stats.Duration = end
	if r.smp != nil {
		last.Time = end
		r.smp.record(last)
		stats.SeriesSamples = r.smp.n
	}
	stats.MeanSteps = float64(stats.Steps) / float64(len(r.parts))
	stats.AdaptRaises = r.ctrl.Raises()
	stats.AdaptCuts = r.ctrl.Cuts()
	stats.StalenessMean = r.ctrl.StalenessMean()
	stats.StalenessMax = r.ctrl.StalenessMax()
	r.c.AddComputeOps(r.totalOps)
	return stats, nil
}

// held is the canonical gate hold: the staleness gate (see gate) for p at
// its time *t under the bound in force, nb < 0 admitting the step. A hold
// is counted, traced and fed to the controller, whose bound change is
// charged to *t — unless waiting, when p re-runs the gate during a wait
// already counted (a live wake the gate does not pass), and the hold
// continues that wait. A needed version that does not exist yet blocks p
// on nb here; one that exists is visible from at, a wait the executor
// books.
//
//async:sched-only
func (r *run[D]) held(p int, t *simtime.Duration, waiting bool) (nb int, at simtime.Duration, exists bool) {
	pt := &r.parts[p]
	bound := r.ctrl.Bound(p)
	if bound < 0 {
		return -1, 0, false
	}
	need := pt.version - bound
	if nb, at, exists = gate(r.store, r.parts, pt, *t, need); nb < 0 {
		return nb, at, exists
	}
	if !waiting {
		r.stats.GateWaits++
		r.rec.Emit(trace.KindGateBegin, p, pt.steps, *t, int64(nb), int64(need), 0)
		if r.ctrl.GateWait(p) {
			r.boundMoved(p, t)
		}
	}
	if !exists {
		pt.state = blocked
		r.parts[nb].gateWaiters = append(r.parts[nb].gateWaiters, p)
	}
	return nb, at, exists
}

// boundMoved is the canonical bound change: the controller moved p's
// bound at *t, which costs adaptCost on p's critical path.
//
//async:sched-only
func (r *run[D]) boundMoved(p int, t *simtime.Duration) {
	*t += r.adaptCost
	r.rec.Emit(trace.KindAdaptBound, p, r.parts[p].steps, *t, int64(r.ctrl.Bound(p)), 0, 0)
}

// began is the canonical step start: p's step runs on the inputs visible
// at t. It reads only p's own state, so live calls it unlocked, right
// before the step, where the recorder's wall stamp belongs.
//
//async:sched-only
func (r *run[D]) began(p int, t simtime.Duration) {
	r.rec.Emit(trace.KindStepStart, p, r.parts[p].steps, t, 0, 0, 0)
}

// stepped is the canonical completed step: it counts the step and its ops
// and refreshes p's cached residual. It is reached in event order right
// after the step's state became canonical — under the parallel executor
// too, whose workload may have speculated ahead in wall time — so every
// sample matches DES.
//
//async:sched-only
func (r *run[D]) stepped(p int, out StepOutcome[D]) {
	r.parts[p].steps++
	r.stats.Steps++
	r.totalOps += out.Ops
	if r.smp != nil {
		r.smp.observe(p)
	}
}

// published is the canonical publish point: p's new version, in the store
// and visible dur after t (live's emulated push), counts and is traced. It
// returns the partitions to wake, in order: p's idle readers, which fresh
// input may un-quiesce, then its gate waiters.
//
//async:sched-only
func (r *run[D]) published(p int, t simtime.Duration, bytes int64, dur simtime.Duration) []int {
	pt := &r.parts[p]
	r.stats.Publishes++
	r.stats.PushedBytes += bytes
	r.rec.Emit(trace.KindPublish, p, pt.steps-1, t, int64(pt.version), bytes, dur)
	woken := r.woken[:0]
	for _, q := range pt.readers {
		if r.parts[q].state == idle {
			woken = append(woken, q)
		}
	}
	return r.released(p, woken)
}

// released appends p's gate waiters to woken and empties p's list. A
// waiter re-runs the full gate when it wakes, so an early wake re-blocks.
//
//async:sched-only
func (r *run[D]) released(p int, woken []int) []int {
	pt := &r.parts[p]
	woken = append(woken, pt.gateWaiters...)
	pt.gateWaiters = pt.gateWaiters[:0]
	return woken
}

// signal is the controller's canonical step signal, once p's step is
// priced, published and checkpointed; a bound change is charged to *t.
//
//async:sched-only
func (r *run[D]) signal(p int, published bool, t *simtime.Duration) {
	if r.ctrl.StepDone(p, published) {
		r.boundMoved(p, t)
	}
}

// next is the canonical settle point, p's last after a step. With again,
// p steps again on input visible from at (0, at once, after a step that
// was not quiescent). Otherwise p has settled: forced at the step cap —
// the run did not converge, and p's store shard is sealed against the
// engine bug that would publish again — or idle, quiescent with nothing
// unseen. A settled partition imposes no gate: woken are its waiters.
//
//async:sched-only
func (r *run[D]) next(p int, out StepOutcome[D]) (at simtime.Duration, woken []int, again bool) {
	pt := &r.parts[p]
	switch {
	case pt.steps >= r.maxSteps:
		pt.state = forced
		r.stats.Converged = false
		r.store.Seal(p)
	case !out.Quiescent:
		return 0, nil, true
	default:
		if at, unseen := firstUnseen(r.store, pt); unseen {
			return at, nil, true
		}
		pt.state = idle
	}
	return 0, r.released(p, r.woken[:0]), false
}

// runStep invokes the workload step, converting panics in user code into
// errors, mirroring the MapReduce engine's task recovery.
func runStep[D any](w Workload[D], p, step int, inputs []Snapshot[D]) (out StepOutcome[D], err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("async: partition %d step %d panicked: %v", p, step, r)
		}
	}()
	return w.Step(p, step, inputs), nil
}

// gate evaluates the staleness bound for pt at time t: pt may not step
// while the version of an unsettled neighbor visible at t is older than
// need, its own publication counter minus the bound in force. nb < 0
// admits the step. Otherwise nb is the first neighbor, in Neighbors
// order, holding pt back, and exists says how: true, the needed version
// is published but only becomes visible at `at` — wait until then; false,
// it does not exist yet — block until nb publishes or settles. Gate reads
// go through the per-neighbor cursors: one partition's gate and input
// reads happen at the same non-decreasing clock, so they share the cache.
func gate[D any](store *Store[D], parts []part, pt *part, t simtime.Duration, need int) (nb int, at simtime.Duration, exists bool) {
	if need <= 0 {
		return -1, 0, false
	}
	for j, q := range pt.neighbors {
		if parts[q].settled() {
			continue
		}
		if v, ok := store.VisibleFrom(q, t, pt.cursors[j]); ok {
			pt.cursors[j] = v
			if v >= need {
				continue
			}
		}
		at, exists = store.At(q, need)
		return q, at, exists
	}
	return -1, 0, false
}

// readInputs is the one input read: it fills buf, parallel to
// pt.neighbors, with the snapshots visible at t — the only copy a step's
// input makes — advancing the read cursors and recording the versions
// read in used (pt.consumed, or a speculation's own vector). lead is the
// largest lead of pt's publication counter over a version read from an
// unsettled neighbor (the quantity the staleness bound caps). blind is
// the neighbor with nothing visible at t, -1 when the read is complete;
// the read stops there.
func readInputs[D any](store *Store[D], parts []part, pt *part, t simtime.Duration, buf []Snapshot[D], used []int) (lead, blind int) {
	for j, q := range pt.neighbors {
		v, ok := store.VisibleFrom(q, t, pt.cursors[j])
		if !ok {
			return lead, q
		}
		pt.cursors[j], used[j] = v, v
		if l := pt.version - v; l > lead && !parts[q].settled() {
			lead = l
		}
		store.fill(&buf[j], q, v)
	}
	return lead, -1
}

// firstUnseen reports whether any neighbor has published a version newer
// than what pt last consumed, and the earliest time such a version
// becomes visible.
func firstUnseen[D any](store *Store[D], pt *part) (at simtime.Duration, unseen bool) {
	for j, q := range pt.neighbors {
		if qAt, ok := store.At(q, pt.consumed[j]+1); ok && (!unseen || qAt < at) {
			at, unseen = qAt, true
		}
	}
	return at, unseen
}

// sampler records the run's time-series (Options.Series) from the
// partition model. prog is the workload's Progressive view (nil when it
// has none) and resid the per-partition residual cache, refreshed by
// observe at each canonical step boundary: a sample must not call into
// workload state that a speculated or concurrent Step may be mutating.
type sampler[D any] struct {
	series *metrics.Series
	store  *Store[D]
	parts  []part
	ctrl   *adapt.Controller
	stats  *RunStats // the run counters: Steps, Publishes, GateWaitTime
	prog   Progressive
	resid  []float64
	every  simtime.Duration // the tick interval
	n      int64            // samples recorded; the next sample's tick
	last   metrics.Sample   // for the delta fields
}

// newSampler returns the sampler for series, nil (sampling off) when
// series is nil.
func newSampler[D any](series *metrics.Series, w Workload[D], store *Store[D], parts []part, ctrl *adapt.Controller, stats *RunStats) *sampler[D] {
	if series == nil {
		return nil
	}
	sm := &sampler[D]{series: series, store: store, parts: parts, ctrl: ctrl, stats: stats, every: series.Interval()}
	if pw, ok := w.(Progressive); ok {
		sm.prog = pw
		sm.resid = make([]float64, len(parts))
		for p := range sm.resid {
			sm.resid[p] = pw.Residual(p)
		}
	}
	return sm
}

// observe refreshes p's cached residual; the caller owns p's workload
// state (p's step just completed and p is single-flight).
func (sm *sampler[D]) observe(p int) {
	if sm.prog != nil {
		sm.resid[p] = sm.prog.Residual(p)
	}
}

// record completes smp and appends it to the series. The executor fills
// in what only it knows — Time, and under Live Wall, QueueDepth and
// Steals; the run counters, residual fold, store heads, controller
// bounds, input-lag occupancy, deltas and tick number (setup 0, interior
// 1..N, final N+1) are read here from state every executor maintains in
// canonical order. Read cursors and in-flight step results are
// deliberately not sampled: under speculation they advance in wall-clock
// order.
//
//async:sched-only
func (sm *sampler[D]) record(smp metrics.Sample) {
	smp.Tick = sm.n
	smp.Steps, smp.Publishes, smp.GateWait = sm.stats.Steps, sm.stats.Publishes, sm.stats.GateWaitTime
	smp.Residual = -1
	if sm.prog != nil {
		smp.Residual = 0
		for _, r := range sm.resid {
			if r > smp.Residual {
				smp.Residual = r
			}
			smp.ResidualSum += r
		}
	}
	smp.DeltaSteps = smp.Steps - sm.last.Steps
	smp.DeltaPublishes = smp.Publishes - sm.last.Publishes
	smp.DeltaGateWait = smp.GateWait - sm.last.GateWait
	boundSum := 0
	for p := range sm.parts {
		pt := &sm.parts[p]
		smp.StoreVersions += int64(sm.store.Latest(p))
		b := sm.ctrl.Bound(p)
		if p == 0 || b < smp.BoundMin {
			smp.BoundMin = b
		}
		if p == 0 || b > smp.BoundMax {
			smp.BoundMax = b
		}
		boundSum += b
		for j, q := range pt.neighbors {
			lag := max(sm.store.Latest(q)-pt.consumed[j], 0)
			smp.LagMax = max(smp.LagMax, lag)
			smp.LagHist[metrics.LagBucket(lag)]++
		}
	}
	smp.BoundMean = float64(boundSum) / float64(len(sm.parts))
	sm.series.Record(smp)
	sm.n++
	sm.last = smp
}
