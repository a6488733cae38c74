package cluster

import (
	"fmt"
	"sync"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// Cluster is a simulated set of hosts with a shared virtual clock and a
// cost model. It tracks aggregate metrics (bytes shuffled, tasks run,
// failures) so experiments can report the same quantities a Hadoop
// JobTracker UI exposed.
//
// Methods that only price an action (Transfer, DFSWrite, ...) are pure
// with respect to the clock: they return durations that the caller
// schedules.
//
// Concurrency contract: pricing methods are pure and safe from any
// goroutine; Account and Metrics serialize on an internal mutex; the
// clock is advanced only by the engine's scheduling loop but may be read
// (Now) from any goroutine. The stochastic draws (TaskAttempts,
// StragglerFactor) consume the cluster RNG and are reserved to the
// scheduling loop — drawing them out of event order would break
// deterministic replay. Engines that fan work out to goroutines (the
// parallel async executor) shard their counters per worker and merge
// them through one Account call at the end of the run.
type Cluster struct {
	cfg   *Config
	clock simtime.Clock
	rng   *stats.RNG

	metrics Metrics
}

// Metrics aggregates observable simulation counters.
type Metrics struct {
	mu sync.Mutex

	MapTasks        int64
	ReduceTasks     int64
	TaskFailures    int64
	ShuffleBytes    int64
	ShuffleRecords  int64
	DFSBytesRead    int64
	DFSBytesWritten int64
	Jobs            int64
	LocalSyncs      int64
	GlobalSyncs     int64
	ComputeOps      int64

	// Fully-asynchronous runtime counters (internal/async).
	AsyncSteps       int64
	AsyncPublishes   int64
	AsyncPushedBytes int64
	AsyncGateWaits   int64

	// Worker-crash fault model counters (internal/recovery).
	AsyncCrashes     int64
	AsyncRecoveries  int64
	AsyncCheckpoints int64

	// Adaptive staleness-control counters (internal/adapt): bound
	// raises and cuts across all async runs.
	AsyncAdaptRaises int64
	AsyncAdaptCuts   int64

	// Live (measured-cost) executor counters: steps executed on the real
	// work-stealing pool and the pool's work-stealing migrations. Live
	// steps also count into AsyncSteps; these break out the measured
	// share.
	AsyncLiveSteps  int64
	AsyncLiveSteals int64
}

// New constructs a cluster from cfg. The configuration is validated; an
// invalid configuration is a programming error and panics.
func New(cfg *Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cluster{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() *Config { return c.cfg }

// Clock returns the cluster's virtual clock.
func (c *Cluster) Clock() *simtime.Clock { return &c.clock }

// Now returns the current virtual time.
func (c *Cluster) Now() simtime.Duration { return c.clock.Now() }

// Reset rewinds the clock and zeroes metrics for a fresh experiment run
// on the same configuration. The RNG is reseeded so runs are identical.
// A scheduling-loop root: callers reset between runs, never while a
// scheduling loop is live.
//
//async:sched-root
func (c *Cluster) Reset() {
	c.clock.Reset()
	c.rng = stats.NewRNG(c.cfg.Seed)
	c.metrics = Metrics{}
}

// Metrics returns a snapshot of the aggregate counters.
func (c *Cluster) Metrics() MetricsSnapshot {
	c.metrics.mu.Lock()
	defer c.metrics.mu.Unlock()
	return MetricsSnapshot{
		MapTasks:         c.metrics.MapTasks,
		ReduceTasks:      c.metrics.ReduceTasks,
		TaskFailures:     c.metrics.TaskFailures,
		ShuffleBytes:     c.metrics.ShuffleBytes,
		ShuffleRecords:   c.metrics.ShuffleRecords,
		DFSBytesRead:     c.metrics.DFSBytesRead,
		DFSBytesWritten:  c.metrics.DFSBytesWritten,
		Jobs:             c.metrics.Jobs,
		LocalSyncs:       c.metrics.LocalSyncs,
		GlobalSyncs:      c.metrics.GlobalSyncs,
		ComputeOps:       c.metrics.ComputeOps,
		AsyncSteps:       c.metrics.AsyncSteps,
		AsyncPublishes:   c.metrics.AsyncPublishes,
		AsyncPushedBytes: c.metrics.AsyncPushedBytes,
		AsyncGateWaits:   c.metrics.AsyncGateWaits,
		AsyncCrashes:     c.metrics.AsyncCrashes,
		AsyncRecoveries:  c.metrics.AsyncRecoveries,
		AsyncCheckpoints: c.metrics.AsyncCheckpoints,
		AsyncAdaptRaises: c.metrics.AsyncAdaptRaises,
		AsyncAdaptCuts:   c.metrics.AsyncAdaptCuts,
		AsyncLiveSteps:   c.metrics.AsyncLiveSteps,
		AsyncLiveSteals:  c.metrics.AsyncLiveSteals,
	}
}

// MetricsSnapshot is an immutable copy of Metrics.
type MetricsSnapshot struct {
	MapTasks         int64
	ReduceTasks      int64
	TaskFailures     int64
	ShuffleBytes     int64
	ShuffleRecords   int64
	DFSBytesRead     int64
	DFSBytesWritten  int64
	Jobs             int64
	LocalSyncs       int64
	GlobalSyncs      int64
	ComputeOps       int64
	AsyncSteps       int64
	AsyncPublishes   int64
	AsyncPushedBytes int64
	AsyncGateWaits   int64
	AsyncCrashes     int64
	AsyncRecoveries  int64
	AsyncCheckpoints int64
	AsyncAdaptRaises int64
	AsyncAdaptCuts   int64
	AsyncLiveSteps   int64
	AsyncLiveSteals  int64
}

func (m MetricsSnapshot) String() string {
	return fmt.Sprintf(
		"jobs=%d maps=%d reduces=%d failures=%d shuffleMB=%.1f dfsWriteMB=%.1f localSyncs=%d globalSyncs=%d",
		m.Jobs, m.MapTasks, m.ReduceTasks, m.TaskFailures,
		float64(m.ShuffleBytes)/1e6, float64(m.DFSBytesWritten)/1e6,
		m.LocalSyncs, m.GlobalSyncs)
}

// --- cost model -----------------------------------------------------------

// ComputeCost prices ops primitive operations on one slot.
func (c *Cluster) ComputeCost(ops int64) simtime.Duration {
	return simtime.Duration(float64(ops) / c.cfg.ComputeRate)
}

// TransferCost prices moving n bytes between two nodes: one latency plus
// serialized bandwidth, degraded by cross-rack contention on big clusters.
func (c *Cluster) TransferCost(bytes int64) simtime.Duration {
	bw := c.cfg.NetBandwidth
	if c.cfg.CrossRackFraction > 0 {
		// A CrossRackFraction of the bytes traverse an oversubscribed
		// core; model as a 4:1 oversubscription on that share.
		bw = bw / (1 + 3*c.cfg.CrossRackFraction)
	}
	return c.cfg.NetLatency + simtime.Duration(float64(bytes)/bw)
}

// DFSWriteCost prices writing n bytes to the distributed filesystem with
// pipeline replication: every byte crosses the network Replication-1
// times and hits Replication disks, but the pipeline overlaps so the
// critical path is max(disk, net) per stage plus the pipeline fill.
func (c *Cluster) DFSWriteCost(bytes int64) simtime.Duration {
	if bytes == 0 {
		return 0
	}
	perCopyDisk := float64(bytes) / c.cfg.DFSBandwidth
	perCopyNet := float64(bytes) / c.cfg.NetBandwidth
	stage := perCopyDisk
	if perCopyNet > stage {
		stage = perCopyNet
	}
	// Pipeline of Replication stages: first byte pays full latency chain,
	// stream then proceeds at the slowest stage rate.
	fill := simtime.Duration(c.cfg.DFSReplication) * c.cfg.NetLatency
	return fill + simtime.Duration(stage)
}

// AsyncPushCost prices one asynchronous state publication in the
// fully-asynchronous runtime: shipping n bytes of boundary state to the
// shared store (one network transfer) plus the fixed per-publication
// bookkeeping overhead. Readers pull the published version from the
// store's (replicated, usually node-local) cache, so the push is the
// only priced transfer — the asynchronous analogue of the shuffle.
func (c *Cluster) AsyncPushCost(bytes int64) simtime.Duration {
	return c.cfg.AsyncSyncOverhead + c.TransferCost(bytes)
}

// CheckpointWriteCost prices one worker checkpoint in the asynchronous
// runtime's fault model: the fixed quiesce/bookkeeping overhead plus a
// replicated DFS write of the snapshot. Checkpoints are on the worker's
// critical path (the partition must be quiescent while its state is
// captured), so the engine charges this to the worker's clock.
func (c *Cluster) CheckpointWriteCost(bytes int64) simtime.Duration {
	return c.cfg.CheckpointCost + c.DFSWriteCost(bytes)
}

// RestoreReadCost prices the restore half of a worker recovery: the
// fixed restart overhead plus a (generally remote — the replacement
// host does not hold a replica) DFS read of the checkpoint. The replay
// half is priced from the recovery journal's recorded step costs.
func (c *Cluster) RestoreReadCost(bytes int64) simtime.Duration {
	return c.cfg.RestoreCost + c.DFSReadCost(bytes, false)
}

// DFSReadCost prices reading n bytes; reads hit one (usually local)
// replica.
func (c *Cluster) DFSReadCost(bytes int64, local bool) simtime.Duration {
	if bytes == 0 {
		return 0
	}
	d := simtime.Duration(float64(bytes) / c.cfg.DFSBandwidth)
	if !local {
		d += c.TransferCost(bytes)
	}
	return d
}

// --- stochastic elements --------------------------------------------------

// TaskAttempts samples how many attempts a task needs and the wasted
// fraction of failed attempts, under the transient-failure model: each
// attempt independently fails with FailureProb, and a failed attempt had
// completed a uniform fraction of its work before dying (deterministic
// replay discards it all — re-execution from scratch, Hadoop semantics).
// Returns (attempts, wastedWorkFraction); attempts >= 1.
func (c *Cluster) TaskAttempts() (int, float64) {
	attempts := 1
	wasted := 0.0
	for c.cfg.FailureProb > 0 && c.rng.Float64() < c.cfg.FailureProb {
		wasted += c.rng.Float64()
		attempts++
		if attempts > 16 {
			break // pathological configuration guard
		}
	}
	return attempts, wasted
}

// minStragglerFactor clamps how much faster than nominal a task may run
// under straggler jitter (a "straggler" can also be a task that beats
// the nominal cost). Every priced duration goes through it, so it is
// part of every simulated time.
const minStragglerFactor = 0.7

// StragglerFactor samples the multiplicative slowdown of one task,
// modeling EC2 heterogeneity. Always >= minStragglerFactor and centered
// at 1.
func (c *Cluster) StragglerFactor() float64 {
	if c.cfg.StragglerJitter == 0 {
		return 1
	}
	f := 1 + c.cfg.StragglerJitter*c.rng.NormFloat64()
	if f < minStragglerFactor {
		f = minStragglerFactor
	}
	return f
}

// --- metric mutation helpers (concurrency-safe) ---------------------------

// Account applies fn to the metrics under lock.
func (c *Cluster) Account(fn func(*Metrics)) {
	c.metrics.mu.Lock()
	defer c.metrics.mu.Unlock()
	fn(&c.metrics)
}
