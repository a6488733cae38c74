package cluster

import (
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// Cluster is a simulated set of hosts: a cost model plus the RNG its
// stochastic draws consume. Each run reports its own time and counters
// (mapreduce.Result, core.RunStats, async.RunStats); the cluster keeps
// only the compute operations of the async runs it priced.
//
// Concurrency contract: pricing methods (ComputeCost, TransferCost, ...)
// are pure and safe from any goroutine, as are AddComputeOps and
// Metrics. The stochastic draws (TaskAttempts, StragglerFactor) consume
// the cluster RNG and are reserved to the scheduling loop — drawing them
// out of event order would break deterministic replay.
type Cluster struct {
	cfg        *Config
	rng        *stats.RNG
	computeOps atomic.Int64
}

// Metrics is a snapshot of the cluster's counter.
type Metrics struct {
	// ComputeOps sums the user compute operations of every async run
	// executed on the cluster.
	ComputeOps int64
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

// AddComputeOps adds a finished run's compute operations to the counter.
func (c *Cluster) AddComputeOps(ops int64) { c.computeOps.Add(ops) }

// Metrics returns a snapshot of the counter.
func (c *Cluster) Metrics() Metrics { return Metrics{ComputeOps: c.computeOps.Load()} }

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
