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
// implement it. DES (core.go) runs every step inline on the scheduling
// goroutine — the original sequential discrete-event mode. Parallel
// (parallel.go) runs the next few steps early on real goroutines with
// the inputs visible so far, keeps each one whose inputs turn out to be
// the ones the event-ordered read makes and undoes and reruns the rest,
// overlapping worker compute on real cores while producing virtual-time
// results identical to DES.
//
// The package is the heart of the deterministic engine core, and its
// contracts are machine-checked by internal/lint: no wall-clock reads
// outside //async:measured live-executor code, no global randomness or
// map-order iteration (this marker), scheduling bookkeeping confined to
// the scheduling goroutine (//async:sched-only / //async:sched-root),
// and no goroutine launched but the live executor's timer (//async:pool):
// every other worker goroutine is an internal/workpool worker. The store's lock-free
// fields are typed atomics, which admit no plain access.
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
	// Live runs the actual partition compute on a goroutine pool with
	// costs *measured* by wall clock instead of drawn from the cluster
	// model (publish visibility keeps the modeled network delay,
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
	// model (the zero value is recovery.None()). With a non-none policy
	// or a positive cluster CrashMTTF, the workload must implement
	// Recoverable. With crashes disabled and no policy, the recovery
	// machinery is fully inert: no journaling, no extra RNG draws, and
	// results bit-identical to a build without the fault model.
	Checkpoint recovery.Policy
	// Adapt selects the adaptive staleness-control policy
	// (internal/adapt): the per-worker feedback controller that
	// re-schedules each worker's effective bound from observed gate
	// waits and progress stalls. nil keeps the static
	// bound Staleness for the whole run (equivalent to
	// adapt.Fixed(Staleness), bit for bit); with a non-nil policy,
	// Staleness is ignored — the policy sets every worker's starting
	// bound.
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
	// LiveSteals counts the live executor's migrations: admitted steps
	// run on a different pool worker from their partition's previous
	// step (always 0 under DES and parallel).
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
	// Finish validates drain invariants, adds the run's compute
	// operations to the cluster's counter, and returns the run's stats.
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
// cluster and reports the run's duration in its stats. The executor in
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
// DES or Parallel, and the DES core for a workload that is not Undoable:
// the parallel executor could not take back its steps. The live executor
// has no phase loop to drive — its partitions step concurrently — so Run
// is its only entry point.
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
	if undo, ok := w.(Undoable[D]); ok && opt.Executor == Parallel {
		return newParallelScheduler(k, undo), nil
	}
	return k, nil
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
