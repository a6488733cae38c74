// Package async is the fully-asynchronous bounded-staleness runtime, the
// third scheduling mode next to the general (synchronous MapReduce) and
// eager (partial synchronization) formulations. It follows the direction
// of the asynchronous-dataflow literature (Gonzalez et al.'s ASIP,
// Hannah & Yin's "more iterations per second", the stale synchronous
// parallel parameter server): per-partition workers iterate
// independently against a shared versioned state store, reading
// neighbor-partition state that may be up to S versions stale.
//
//   - S = 0 degenerates to lockstep: a worker may never publish ahead of
//     an active neighbor, recovering BSP-like waves without a global
//     barrier primitive.
//   - S = Unbounded is free-running chaotic iteration: workers never
//     wait; staleness is limited only by relative execution speed.
//   - Intermediate S is the stale-synchronous-parallel regime: fast
//     workers run ahead until the bound forces them to let laggards
//     catch up.
//
// Execution is a deterministic discrete-event simulation: real user
// compute runs for every step, but ordering and cost come from the
// virtual clock (package simtime) and the cluster cost model (package
// cluster), so runs replay identically for a fixed configuration.
//
// The scheduling core is mode-agnostic (Scheduler); two executors
// implement it. DES (des.go) runs every step inline on the scheduling
// goroutine — the original sequential discrete-event mode. Parallel
// (parallel.go) runs the next few steps early on real goroutines with
// the inputs visible so far, keeps each one whose inputs turn out to be
// the ones the event-ordered read makes and undoes and reruns the rest,
// overlapping worker compute on real cores while producing virtual-time
// results identical to DES.
//
// The package is the heart of the deterministic engine core, and its
// contracts are machine-checked by cmd/asynclint: no wall-clock reads
// outside //async:measured live-executor code, no global randomness or
// map-order iteration (this marker), scheduling bookkeeping confined to
// the scheduling goroutine (//async:sched-only / //async:sched-root),
// and goroutines launched only at the executor's annotated pool
// dispatch (//async:pool). The store's lock-free fields are typed
// atomics, which admit no plain access.
//
//async:deterministic
package async

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Unbounded disables the staleness gate: workers free-run.
const Unbounded = -1

// DefaultMaxSteps bounds per-worker steps when Options.MaxSteps is zero;
// hitting it means the workload is not settling (oscillation or a
// divergent update rule) and is reported as Converged=false.
const DefaultMaxSteps = 10000

// Executor selects how admitted worker steps execute.
type Executor int

const (
	// DES runs every step inline on the scheduling goroutine in strict
	// virtual-time order: the original deterministic discrete-event mode.
	DES Executor = iota
	// Parallel runs upcoming steps early on real goroutines and validates
	// each against the event-ordered read (validate or undo), keeping
	// virtual-time results identical to DES while wall-clock work overlaps
	// across cores.
	Parallel
	// Live runs the actual partition compute on a work-stealing goroutine
	// pool with costs *measured* by wall clock instead of drawn from the
	// cluster model (publish visibility keeps the modeled network delay,
	// in real time — see live.go). Not deterministic: DES is its
	// correctness oracle, exact for monotone workloads and
	// tolerance-bounded otherwise (asynctest's TestDifferential). It has
	// no phase loop: Run is its only entry point.
	Live
)

func (e Executor) String() string {
	switch e {
	case DES:
		return "des"
	case Parallel:
		return "parallel"
	case Live:
		return "live"
	default:
		return fmt.Sprintf("executor(%d)", int(e))
	}
}

// Options configure an asynchronous run.
type Options struct {
	// Staleness is the bound S: a worker may read neighbor state at most
	// S versions behind its own publication counter. 0 is lockstep,
	// Unbounded (negative) is free-running.
	Staleness int
	// MaxSteps caps the steps of each worker (0 = DefaultMaxSteps).
	MaxSteps int
	// Executor selects the execution strategy (default DES).
	Executor Executor
	// Workers caps the parallel and live executors' goroutine pools (0 =
	// GOMAXPROCS). The DES executor ignores it.
	Workers int
	// Checkpoint is the worker checkpoint policy of the crash fault
	// model (nil = recovery.None()). With a non-none policy or a
	// positive cluster CrashMTTF, the workload must implement
	// Recoverable. With crashes disabled and no policy, the recovery
	// machinery is fully inert: no journaling, no extra RNG draws, and
	// results bit-identical to a build without the fault model.
	Checkpoint recovery.Policy
	// Adapt selects the adaptive staleness-control policy
	// (internal/adapt): the per-worker feedback controller that
	// re-schedules each worker's effective bound from observed gate
	// waits, progress stalls, and publish lag. nil keeps the static
	// bound Staleness for the whole run (equivalent to
	// adapt.Fixed(Staleness), bit for bit); with a non-nil policy,
	// Staleness is ignored — the policy's Init defines every worker's
	// starting bound.
	Adapt adapt.Policy
	// Trace, when non-nil, records the run's structured event stream
	// (internal/trace): step/gate/publish/speculation/fault/adapt
	// events stamped with virtual time (and wall time under Live).
	// Tracing is inert — hook sites only read engine state and append
	// to the recorder, so RunStats and converged state are
	// bit-identical with Trace set or nil (asynctest's TestDifferential).
	// nil disables all recording at the cost of one branch per hook.
	Trace *trace.Recorder
	// Series, when non-nil, records the run's fixed-interval
	// time-series (internal/metrics): residual-vs-time, staleness
	// occupancy, gate-wait accumulation. Samples are taken on the
	// series' tick interval by sampler events riding the scheduler's
	// event heap in virtual time (a real timer under Live). Sampling
	// is inert, exactly like Trace: sampler events never touch the
	// step-event accounting, so RunStats (apart from the
	// SeriesTicks/SeriesSamples counters) and final workload state are
	// bit-identical with Series set or nil
	// (asynctest's TestDifferential), and a DES and a parallel run of
	// the same configuration record byte-identical series.
	Series *metrics.Series
}

// StepOutcome is what one worker step hands back to the engine.
type StepOutcome[D any] struct {
	// Publish, when true, appends Data as the partition's next version.
	// Workers publish only on material change; a no-change step
	// publishing anyway would wake every reader and livelock the system
	// at the floating-point noise floor.
	Publish bool
	// Data is the new boundary state (meaningful when Publish).
	Data D
	// Bytes is the serialized size of Data, pricing the push.
	Bytes int64
	// Ops is the user compute performed, priced at the cluster's rate.
	Ops int64
	// LocalIters counts local sweeps inside the step, each priced one
	// LocalSyncOverhead (the same in-memory barrier the eager mode pays).
	LocalIters int64
	// Quiescent reports local convergence: the step changed (almost)
	// nothing, so the worker should sleep until fresher input arrives.
	// A non-quiescent worker is immediately rescheduled.
	Quiescent bool
}

// Workload adapts one algorithm to the asynchronous runtime. This is the
// common iterate-until-converged contract all three workloads (PageRank,
// SSSP, K-Means) implement; the engine is oblivious to what D holds.
//
// Step must be a deterministic function of (p, step, inputs) and state
// that only partition p's own steps mutate, and it must not retain the
// inputs slice past the call (the runtime reuses per-partition input
// buffers; the snapshots' Data values stay immutable and may be kept).
// The parallel executor relies on this: it may run Step for different
// partitions concurrently, and — for a workload that is also Undoable —
// it may run a step before its virtual timestamp is reached, on inputs
// that later prove stale, and then take the step back.
type Workload[D any] interface {
	// Parts returns the number of partitions (= workers).
	Parts() int
	// Neighbors lists the partitions whose published state partition p
	// reads, in a fixed deterministic order, excluding p itself.
	Neighbors(p int) []int
	// Init returns partition p's initial published state (version 0,
	// visible from virtual time zero — the job input already resides on
	// the DFS) and the partition's input size in bytes, which prices the
	// worker's one-time startup read.
	Init(p int) (data D, inputBytes int64)
	// Step runs one asynchronous super-step for partition p: integrate
	// the given neighbor snapshots (parallel to Neighbors(p)), advance
	// local state, and report what changed. step counts prior calls for
	// this partition.
	Step(p int, step int, inputs []Snapshot[D]) StepOutcome[D]
}

// Recoverable extends Workload with the state hooks of the worker-crash
// fault model (internal/recovery). A crashed worker loses its in-memory
// partition state; the versioned store survives (it is the durable
// substrate, the asynchronous analogue of HDFS job input). Recovery
// restores the last checkpoint and replays the journaled steps against
// the store's immutable history, re-reading each step's inputs at its
// original read time — so Restore followed by those Step calls must
// rebuild partition p's state bit for bit. Both hooks are invoked on
// the scheduling goroutine only, and replayed Step calls may revisit
// step indices the workload has already seen (Hadoop-style
// deterministic re-execution).
type Recoverable[D any] interface {
	Workload[D]
	// Checkpoint returns an opaque snapshot of partition p's local state
	// plus its serialized size in bytes (pricing the DFS write and the
	// recovery read). The snapshot must be immutable: later steps must
	// not mutate what it captures. It has a single holder: the scheduler
	// keeps only the latest checkpoint of a partition, so an
	// implementation may recycle the snapshot handed out two calls ago
	// (K-Means, SSSP and CC do). A second caller would silently corrupt
	// recovery — which is why Undoable saves into buffers of its own.
	Checkpoint(p int) (state any, bytes int64)
	// Restore resets partition p's local state to a snapshot previously
	// returned by Checkpoint.
	Restore(p int, state any)
}

// Undoable extends Workload with a one-step undo, the hook the parallel
// executor's optimistic speculation needs: it runs a step on the inputs
// visible so far and, when the event-ordered read later sees other
// versions, takes the step back and reruns it. A workload without the
// pair runs every step inline under the parallel executor.
//
// Between SaveUndo(p, ...) and the matching Restore exactly one
// Step(p, ...) runs — or panics part-way — and nothing else touches
// partition p. After Restore, everything a later Step, Checkpoint or
// Residual reads must be, bit for bit, what it was at SaveUndo; scratch a
// Step rebuilds before reading it need not be saved. The buffers are the
// executor's, never the checkpoint's: see Recoverable.Checkpoint.
type Undoable[D any] interface {
	Workload[D]
	// SaveUndo copies partition p's cross-step state into buf and returns
	// it. buf is nil, or a buffer an earlier SaveUndo — of any partition —
	// returned and whose speculation is over: reuse its memory. It runs on
	// the goroutine about to run p's speculated Step.
	SaveUndo(p int, buf any) any
	// Restore puts partition p back to the state SaveUndo(p, ...) left in
	// buf, on the scheduling goroutine, after that Step returned. It is
	// Recoverable's method: a workload that is both saves the record it
	// checkpoints and has one piece of restore code.
	Restore(p int, buf any)
}

// Progressive is an optional Workload extension for the metrics layer
// (Options.Series): workloads that can report a per-partition
// convergence residual — the quantity whose trajectory toward zero is
// the run's progress curve (the figure the paper's "same quality in
// less time" claim lives in). Residual must be a pure read of
// partition p's state as of its most recent completed step — no
// mutation, no retained references — and must return a finite,
// non-negative value; before p's first step it returns a
// workload-defined initial estimate. The runtime reads it only at
// canonical step boundaries on the goroutine that owns the partition's
// state at that point, so implementations need no synchronization
// beyond the Workload contract's.
type Progressive interface {
	// Residual reports partition p's current convergence residual:
	// PageRank's last max rank delta, K-Means' last max centroid
	// movement, SSSP's and CC's fraction of nodes still at their
	// unreached value (+Inf, the node's own id).
	Residual(p int) float64
}

// RunStats summarizes an asynchronous run.
type RunStats struct {
	// Steps is the total worker steps executed; MeanSteps averages them
	// per worker — the asynchronous analogue of the figures' global
	// iteration count.
	Steps     int64
	MeanSteps float64
	// Publishes and PushedBytes measure the asynchronous synchronization
	// traffic that replaces the shuffle.
	Publishes   int64
	PushedBytes int64
	// GateWaits counts steps delayed by the staleness bound, and
	// GateWaitTime their cumulative virtual duration — the total worker
	// time spent parked at the gate (the quantity adaptive staleness
	// control tries to shrink without spending extra stale steps).
	GateWaits    int64
	GateWaitTime simtime.Duration
	// MaxLead is the largest observed lead of a worker's publication
	// counter over a version it read from a still-active neighbor; the
	// staleness invariant is MaxLead <= S for bounded runs. (Reads from
	// settled partitions are excluded: their newest version is their
	// final state.)
	MaxLead int
	// Failures counts replayed step attempts under the transient-failure
	// model.
	Failures int
	// Converged is false when a worker hit MaxSteps instead of settling.
	Converged bool
	// Duration is the simulated time to global quiescence: the latest
	// worker virtual clock.
	Duration simtime.Duration
	// PerWorkerSteps records each worker's step count.
	PerWorkerSteps []int
	// Speculated counts steps satisfied by a committed speculation on the
	// parallel executor, and SpecDiscarded the speculations taken back
	// instead: the event-ordered read saw a version they had not, or the
	// partition crashed or the run ended under them (both 0 under DES).
	// They are observability counters, not virtual-time quantities: two
	// executors producing the same run report the same stats apart from
	// these fields and SpecDepth. They repeat run for run at a fixed pool
	// size: both are decided from virtual-time state.
	Speculated    int64
	SpecDiscarded int64
	// Crashes counts worker-crash events that struck while the run was
	// live (the crash fault model, internal/recovery); Recoveries counts
	// the restore+replay cycles performed — crashes of force-stopped
	// workers are not recovered, so Recoveries <= Crashes. Both are
	// virtual-time quantities: identical across executors for one seed.
	Crashes    int64
	Recoveries int64
	// LostSteps is the cumulative number of journaled steps recovery had
	// to replay; a worker crashing twice between checkpoints replays its
	// journal twice and counts it twice.
	LostSteps int64
	// Checkpoints counts checkpoints taken under the run's policy;
	// CheckpointTime is the total virtual time workers spent writing
	// them, and RecoveryTime the total virtual time spent restoring and
	// replaying after crashes — the two sides of the checkpoint-interval
	// trade-off.
	Checkpoints    int64
	CheckpointTime simtime.Duration
	RecoveryTime   simtime.Duration
	// AdaptRaises and AdaptCuts count the staleness controller's bound
	// changes (internal/adapt): upward moves probing for head-room and
	// downward moves backing off from waste. Both stay zero under the
	// fixed policy. StalenessMean is the mean bound in force across
	// executed steps and StalenessMax the largest bound ever in force on
	// any worker — together the controller's observable trajectory
	// (free-running bounds contribute their negative sentinel). All four
	// are virtual-time quantities: identical across executors.
	AdaptRaises   int64
	AdaptCuts     int64
	StalenessMean float64
	StalenessMax  int
	// SpecDepth is the peak number of speculated steps in flight at
	// once — the upper bound on wall-clock overlap. A parallel run whose
	// SpecDepth stays at 1 only ever pre-executes the imminent head event
	// and degenerates to a slower DES. It is capped by a fixed number per
	// pool goroutine, so it follows the pool size, not the cluster's cost
	// model, and is deterministic at a fixed one. Always 0 under DES.
	SpecDepth int
	// LiveComputeTime is the summed measured wall-clock time pool workers
	// spent inside Workload.Step under the live executor (always 0 under
	// DES and parallel). Against Duration — the measured makespan — it
	// bounds the run's effective compute overlap. Under the live executor
	// GateWaitTime, Duration, and the store timestamps are likewise
	// measured real time, not virtual time.
	LiveComputeTime simtime.Duration
	// LiveSteals counts run-queue items executed by a pool worker other
	// than the one they were queued on — the live executor's
	// work-stealing migrations (always 0 under DES and parallel).
	LiveSteals int64
	// LiveWakes counts the timed wakes the live executor served: partitions
	// parked in its wake heap until a publication became visible, handed
	// back to the pool by the timer. LiveWakeLateTime is their summed
	// lateness, each wake's queueing time minus its scheduled wake time:
	// how far the emulated network sits behind the modeled push (both
	// always 0 under DES and parallel).
	LiveWakes        int64
	LiveWakeLateTime simtime.Duration
	// SeriesTicks counts interior sampler ticks fired on the sampling
	// grid (Admit's due-tick check, or the live executor's timed-wake
	// heap), and SeriesSamples the samples recorded
	// into the attached metrics.Series — interior ticks plus the
	// run-start and run-end boundary samples. Both are zero when
	// Options.Series is nil: they are the only RunStats fields a
	// sampled run may differ from an unsampled one in
	// (asynctest.SeriesStats, which TestDifferential exempts), and they
	// are deterministic across the virtual-time executors.
	SeriesTicks   int64
	SeriesSamples int64
}

// Scheduler is the mode-agnostic scheduling contract of the asynchronous
// runtime. Drive runs its phases in a fixed loop:
//
//	for Admit() → Gate() → Execute() → Publish() → Advance(); then Finish().
//
// Both executors share one core implementation of the bookkeeping phases
// (workerState, staleness gate, pricing, wake-on-publish); they differ
// only in how Execute maps admitted steps onto OS resources. That keeps
// the deterministic event order — and therefore every stochastic draw
// and virtual-time result — identical across executors.
//
// Every phase method is //async:sched-only: the phases mutate
// unsynchronized scheduling state and must stay on the single
// scheduling goroutine (Drive's loop). Close comes after the last phase,
// from that goroutine too.
type Scheduler[D any] interface {
	// Admit pops the next due worker event and advances that worker's
	// local clock to the event time; ok is false once the event queue
	// has drained. Executors may use this hook to pre-execute upcoming
	// independent steps.
	//
	//async:sched-only
	Admit() (p int, ok bool)
	// Gate applies the staleness bound to p at its current virtual time.
	// It either admits the step (true) or books the wait: blocking p on
	// the laggard neighbor, or rescheduling p at the virtual time the
	// needed version becomes visible.
	//
	//async:sched-only
	Gate(p int) bool
	// Execute runs p's next step against the snapshots visible at p's
	// virtual time and records consumption/staleness accounting.
	//
	//async:sched-only
	Execute(p int) (StepOutcome[D], error)
	// Publish prices the executed step (compute, local syncs, push,
	// straggler and failure draws), advances p's virtual clock, appends
	// published state to the store, and wakes idle readers and gated
	// waiters.
	//
	//async:sched-only
	Publish(p int, out StepOutcome[D]) error
	// Advance decides p's next move: requeue immediately, wait for
	// fresher input, go idle, or force-stop at the step cap.
	//
	//async:sched-only
	Advance(p int, out StepOutcome[D])
	// Finish validates drain invariants, folds per-run counters into the
	// cluster's metrics and clock, and returns the run's stats.
	//
	//async:sched-only
	Finish() (*RunStats, error)
	// Close releases executor resources (goroutine pools). It is
	// idempotent and must be called even when a phase returned an error;
	// once it returns no executor goroutine touches workload state, and
	// no step the run did not keep has left a mark on it.
	Close()
}

// Run executes the workload to global quiescence on the given simulated
// cluster, advancing its clock by the run's duration. The executor in
// opt chooses between the sequential DES and the wall-clock-parallel
// strategy, which produce identical virtual-time results, and the live
// executor, which measures instead (live.go).
//
//async:sched-root
func Run[D any](c *cluster.Cluster, w Workload[D], opt Options) (*RunStats, error) {
	if opt.Executor == Live {
		return runLive(c, w, opt)
	}
	s, err := NewScheduler(c, w, opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return Drive(s)
}

// NewScheduler builds the scheduler for opt.Executor over the workload:
// DES or Parallel. The live executor has no phase loop to drive — its
// partitions step concurrently — so Run is its only entry point.
//
//async:sched-root
func NewScheduler[D any](c *cluster.Cluster, w Workload[D], opt Options) (Scheduler[D], error) {
	switch opt.Executor {
	case DES, Parallel:
	case Live:
		return nil, fmt.Errorf("async: the live executor has no phase loop; run it with Run")
	default:
		return nil, fmt.Errorf("async: unknown executor %v", opt.Executor)
	}
	k, err := newCore(c, w, opt)
	if err != nil {
		return nil, err
	}
	if opt.Executor == Parallel {
		return newParallelScheduler(k), nil
	}
	return &desScheduler[D]{k}, nil
}

// Drive runs a scheduler's phase loop to global quiescence.
//
//async:sched-root
func Drive[D any](s Scheduler[D]) (*RunStats, error) {
	for {
		p, ok := s.Admit()
		if !ok {
			break
		}
		if !s.Gate(p) {
			continue
		}
		out, err := s.Execute(p)
		if err != nil {
			return nil, err
		}
		if err := s.Publish(p, out); err != nil {
			return nil, err
		}
		s.Advance(p, out)
	}
	return s.Finish()
}

// workerState is what virtual time adds to the shared partition model
// (part.go): the core's per-partition bookkeeping.
type workerState struct {
	*part
	clock  simtime.Duration // the worker's local virtual clock
	idle   bool             // settled: quiescent with no unseen input
	forced bool             // settled: stopped by MaxSteps
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
	blocked int

	// Pending-event mirror: each worker has at most one live event in the
	// heap; pending[p]/pendingAt[p] track it, so Admit can tell an entry a
	// crash-recovery reschedule superseded and the parallel executor can
	// pick the earliest pending steps without scanning the heap.
	pending   []bool
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

	// adaptCost prices one staleness-controller bound change onto the
	// worker's critical path. The controller (run.ctrl) is consulted at
	// gate bookings and step boundaries, on the scheduling goroutine, in
	// event order.
	adaptCost simtime.Duration

	// sampleAt is the next sampler tick's virtual time (Options.Series).
	// Ticks do not ride the event heap: Admit fires every due tick before
	// popping an event — without touching stepEvents, the heap or its
	// sequence numbers, so the canonical event sequence is bit-identical
	// with or without a sampler on both executors. The sampler's residual
	// cache is refreshed at noteStep — the canonical step boundary — so a
	// parallel run's sampler reads the same values DES would even while
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
	k := &core[D]{
		run:       r,
		workers:   make([]*workerState, n),
		pending:   make([]bool, n),
		pendingAt: make([]simtime.Duration, n),
		adaptCost: r.cfg.AdaptCost,
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

// schedule queues partition p's next event and keeps the pending-event
// mirror coherent.
//
//async:sched-only
func (k *core[D]) schedule(p int, at simtime.Duration) {
	k.heap.Push(at, p)
	k.stepEvents++
	k.pending[p] = true
	k.pendingAt[p] = at
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
			// pending mirror, so sampling is inert; once the run drains,
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
			// worker's authoritative time in the pending mirror.
			continue
		}
		k.pending[ev.ID] = false
		st := k.workers[ev.ID]
		if st.clock < ev.At {
			st.clock = ev.At
		}
		return ev.ID, true
	}
}

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
	if st.forced {
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
		if _, q := readInputs(k.store, k.parts, st.part, rec.ReadAt, buf); q >= 0 {
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
	if k.pending[p] && k.pendingAt[p] < st.clock {
		// Recovery pushed the worker's clock past its pending event.
		// Executing at the old event would read at the recovered clock
		// while later events can still publish versions visible at or
		// before it — the event-ordered read would not be reproducible
		// (and replay would diverge). Reschedule at the recovered clock,
		// restoring the invariant that every step reads exactly at the
		// frontier; the superseded heap entry is discarded as stale when
		// popped (its time no longer matches the pending mirror).
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

// Gate applies the staleness bound; see Scheduler. With bound S(p) —
// the controller's bound in force for p — partition p may not run a
// step while its publication counter leads the visible version of any
// active neighbor by more than S(p). A booked wait is fed to the
// staleness controller, whose decision (a raise probing for head-room
// under the aimd policy) applies from p's next gate evaluation on.
//
//async:sched-only
func (k *core[D]) Gate(p int) bool {
	st := k.workers[p]
	bound := k.ctrl.Bound(p)
	if bound < 0 {
		return true
	}
	need := st.version - bound
	nb, wakeAt, exists := gate(k.store, k.parts, st.part, st.clock, need)
	if nb < 0 {
		return true
	}
	k.stats.GateWaits++
	k.rec.Emit(trace.KindGateBegin, p, st.steps, st.clock, int64(nb), int64(need), 0)
	if exists {
		// The wake time is known at booking; the blocked-on-a-laggard
		// case is measured when the publication releases the waiter.
		k.stats.GateWaitTime += wakeAt - st.clock
	}
	if k.ctrl.GateWait(p) {
		st.clock += k.adaptCost
		k.rec.Emit(trace.KindAdaptBound, p, st.steps, st.clock, int64(k.ctrl.Bound(p)), 0, 0)
	}
	if !exists {
		// The needed version does not exist yet: sleep until nb publishes
		// or settles.
		k.parts[nb].gateWaiters = append(k.parts[nb].gateWaiters, p)
		k.blocked++
	} else {
		// The needed version exists but becomes visible only at wakeAt:
		// wait for it in virtual time. (A controller decision charge may
		// have pushed the worker's clock past the visibility time.)
		if wakeAt < st.clock {
			wakeAt = st.clock
		}
		k.rec.Emit(trace.KindGateRelease, p, st.steps, wakeAt, int64(nb), 0, 0)
		k.schedule(p, wakeAt)
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
	lead, blind := readInputs(k.store, k.parts, st.part, st.clock, k.inbuf[p])
	if blind >= 0 {
		return nil, fmt.Errorf("async: partition %d invisible to %d at %v", blind, p, st.clock)
	}
	k.stats.MaxLead = max(k.stats.MaxLead, lead)
	return k.inbuf[p], nil
}

// noteStep records a completed step in the worker and run counters.
// It is the canonical step boundary on both virtual-time executors
// (inline execution and speculated-consume alike reach it in event
// order), so it doubles as the trace layer's step-start hook: the
// step ran at st.clock, the pre-pricing event time.
//
//async:sched-only
func (k *core[D]) noteStep(p int, out StepOutcome[D]) {
	st := k.workers[p]
	k.rec.Emit(trace.KindStepStart, p, st.steps, st.clock, 0, 0, 0)
	st.steps++
	st.quiescent = out.Quiescent
	k.stats.Steps++
	k.totalOps += out.Ops
	if k.smp != nil {
		// Refresh the sampler's residual cache at the canonical step
		// boundary. Under the parallel executor the workload may already
		// have speculated ahead in wall time, but noteStep runs in event
		// order right after this step's state became canonical (the
		// speculation consume waited on the step's completion), so the
		// cache — and every sample built from it — matches DES exactly.
		k.smp.observe(p)
	}
}

// Execute runs p's step inline on the scheduling goroutine; see
// Scheduler. The parallel executor overrides this to commit a valid
// speculation instead.
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
	k.noteStep(p, out)
	return out, nil
}

// Publish prices the step and makes its state visible; see Scheduler.
// The stochastic draws (straggler, failure replay) happen here, on the
// scheduling goroutine, in event order — that is what keeps every
// executor's virtual-time results identical.
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

	if !out.Publish {
		k.maybeCheckpoint(p)
		k.adaptStep(p, false)
		return nil
	}
	st.version++
	if err := k.store.Publish(p, st.version, st.clock, out.Data); err != nil {
		return err
	}
	k.stats.Publishes++
	k.stats.PushedBytes += out.Bytes
	k.rec.Emit(trace.KindPublish, p, st.steps-1, st.clock, int64(st.version), out.Bytes, 0)
	// Wake idle readers: fresh input may un-quiesce them.
	for _, r := range st.readers {
		if k.workers[r].idle && !k.workers[r].forced {
			k.workers[r].idle, k.workers[r].settled = false, false
			wake := k.workers[r].clock
			if st.clock > wake {
				wake = st.clock
			}
			k.schedule(r, wake)
		}
	}
	k.blocked -= k.releaseGateWaiters(p)
	k.maybeCheckpoint(p)
	k.adaptStep(p, true)
	return nil
}

// adaptStep feeds the completed (and priced, published,
// waiter-released, possibly checkpointed) step into the staleness
// controller at the step boundary, charging a bound change to the
// worker's critical path. The publish-lag scan runs only for policies
// that want it, so the fixed and aimd hot paths pay no per-step neighbor
// loop. Latest is read on the scheduling goroutine after this step's own
// publication, a point both executors reach with identical store
// contents, so the signal (and every decision derived from it) is
// executor-independent.
//
//async:sched-only
func (k *core[D]) adaptStep(p int, published bool) {
	st := k.workers[p]
	lag := 0
	if k.ctrl.NeedsLag() {
		lag = publishLag(k.store, st.part)
	}
	if k.ctrl.StepDone(p, published, lag) {
		st.clock += k.adaptCost
		k.rec.Emit(trace.KindAdaptBound, p, st.steps, st.clock, int64(k.ctrl.Bound(p)), 0, 0)
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
	if !k.policy.Due(st.steps-st.log.Ckpt.Step, st.clock-st.log.Ckpt.At) {
		return
	}
	state, bytes := k.rw.Checkpoint(p)
	d := k.c.CheckpointWriteCost(bytes)
	st.clock += d
	k.stats.Checkpoints++
	k.stats.CheckpointTime += d
	k.rec.Emit(trace.KindCheckpoint, p, st.steps, st.clock, bytes, 0, d)
	st.log.Commit(state, bytes, st.steps, st.clock, st.cursors, st.consumed)
}

// Advance decides p's next move; see Scheduler.
//
//async:sched-only
func (k *core[D]) Advance(p int, out StepOutcome[D]) {
	st := k.workers[p]
	switch {
	case st.steps >= k.maxSteps:
		st.forced, st.settled = true, true
		k.stats.Converged = false
		// Seal the partition in the store: it will never publish again,
		// and the store rejects the engine bug that tries.
		k.store.Seal(p)
		k.blocked -= k.releaseGateWaiters(p)
	case !out.Quiescent:
		k.schedule(p, st.clock)
	default:
		if at, unseen := firstUnseen(k.store, st.part); unseen {
			// Fresher input already exists; consume it once it is visible
			// on p's clock.
			if at < st.clock {
				at = st.clock
			}
			k.schedule(p, at)
		} else {
			st.idle, st.settled = true, true
			k.blocked -= k.releaseGateWaiters(p)
		}
	}
}

// Finish validates drain invariants and folds the run into the cluster;
// see Scheduler.
//
//async:sched-only
func (k *core[D]) Finish() (*RunStats, error) {
	if k.err != nil {
		return nil, k.err
	}
	if k.blocked != 0 {
		return nil, fmt.Errorf("async: %d workers still gate-blocked at drain", k.blocked)
	}
	// The run ends at the latest worker clock; the final sample there is
	// monotone by construction — the last popped tick precedes the last
	// step event, which bounds it from below.
	var latest simtime.Duration
	for _, st := range k.workers {
		if st.clock > latest {
			latest = st.clock
		}
		if !st.quiescent && !st.forced {
			k.stats.Converged = false
		}
	}
	return k.finish(latest, metrics.Sample{}), nil
}

// releaseGateWaiters reschedules every worker blocked on st (after st
// published, idled, or was force-stopped) and returns how many were
// released. Waiters re-run the full gate at their event, so a premature
// wake only re-blocks. The measured wait — release time minus the
// waiter's clock at booking — settles the gate-wait-time accounting the
// booking deferred (the awaited version did not exist then, so the
// duration was unknowable).
//
//async:sched-only
func (k *core[D]) releaseGateWaiters(p int) int {
	st := k.workers[p]
	released := len(st.gateWaiters)
	for _, r := range st.gateWaiters {
		wake := k.workers[r].clock
		if st.clock > wake {
			wake = st.clock
		}
		if d := wake - k.workers[r].clock; d > 0 {
			k.stats.GateWaitTime += d
		}
		k.rec.Emit(trace.KindGateRelease, r, k.workers[r].steps, wake, int64(p), 0, 0)
		k.schedule(r, wake)
	}
	st.gateWaiters = st.gateWaiters[:0]
	return released
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
