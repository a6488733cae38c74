// Package cluster simulates the distributed execution platform the paper
// evaluated on: an 8-node Amazon EC2 cluster running Hadoop 0.20.1
// (paper Table I). The simulator does not model packets or disks
// byte-by-byte; it charges virtual time (package simtime) for the cost
// components that dominate an iterative Hadoop job on a cloud —
// per-job scheduling overhead, task launch, record processing, the shuffle
// (network latency + bandwidth + sort), and DFS reads/writes with
// replication — using constants calibrated to Hadoop-0.20-era published
// measurements. The engines (internal/mapreduce, internal/async) execute
// real user code over real data, consult this package only for prices,
// and report each run's own simulated time.
package cluster

import (
	"fmt"

	"repro/internal/simtime"
)

// Config describes a simulated cluster. All rates are per simulated
// second. The zero value is unusable; construct via one of the preset
// functions or fill every field.
type Config struct {
	// Name identifies the preset in reports ("ec2-8xlarge", ...).
	Name string

	// Nodes is the number of worker hosts.
	Nodes int
	// MapSlotsPerNode and ReduceSlotsPerNode mirror Hadoop's static slot
	// model (mapred.tasktracker.map.tasks.maximum).
	MapSlotsPerNode    int
	ReduceSlotsPerNode int

	// ComputeRate is user-compute primitive operations per second per
	// slot. Applications charge operations (edge relaxations, distance
	// computations) against this rate.
	ComputeRate float64

	// MapRecordCost / ReduceRecordCost is the fixed per-record framework
	// overhead (deserialization, context switches, spill bookkeeping).
	MapRecordCost    simtime.Duration
	ReduceRecordCost simtime.Duration
	// EmitCost is charged per emitted intermediate record (serialize +
	// buffer + partition).
	EmitCost simtime.Duration
	// SortCostPerRecord approximates the merge-sort constant applied
	// n*log2(n) times during the shuffle sort phase.
	SortCostPerRecord simtime.Duration

	// NetLatency is the one-way latency of a transfer between two nodes.
	// NetBandwidth is per-node network bandwidth in bytes/second.
	NetLatency   simtime.Duration
	NetBandwidth float64
	// CrossRackFraction in [0,1] scales effective shuffle bandwidth down
	// to model oversubscribed aggregation switches on big clusters.
	CrossRackFraction float64

	// DFSReplication is the HDFS replication factor; writes pay for the
	// replication pipeline. DFSBandwidth is bytes/second/node for DFS IO.
	DFSReplication int
	DFSBandwidth   float64

	// JobOverhead is the fixed per-job cost: job client submission,
	// JobTracker scheduling, JVM spawning, setup/cleanup tasks. On Hadoop
	// 0.20 this was tens of seconds and is the term partial
	// synchronization amortizes away.
	JobOverhead simtime.Duration
	// TaskOverhead is the per-task launch cost (heartbeat wait + JVM
	// reuse path).
	TaskOverhead simtime.Duration

	// LocalSyncOverhead is the cost of one local (intra-map, in-memory)
	// synchronization barrier in the partial-synchronization runtime.
	// The paper's premise is LocalSyncOverhead << JobOverhead.
	LocalSyncOverhead simtime.Duration

	// AsyncSyncOverhead is the fixed bookkeeping cost of one asynchronous
	// state publication in the fully-asynchronous runtime
	// (internal/async): an RPC to the shared state store — version stamp,
	// serialization setup, acknowledgement. It sits between the two
	// existing synchronization costs, LocalSyncOverhead (an in-memory
	// barrier) and JobOverhead (a full Hadoop job launch); the async
	// mode's premise is AsyncSyncOverhead << JobOverhead.
	AsyncSyncOverhead simtime.Duration

	// FailureProb is the per-task-attempt probability of a transient
	// failure; failed attempts are re-executed (deterministic replay),
	// wasting the fraction of the attempt that had completed.
	FailureProb float64

	// CrashMTTF is the mean time to failure of one asynchronous worker
	// host in virtual time: each worker crashes as an independent Poisson
	// process with this mean, losing its in-memory partition state (the
	// versioned store survives — it is the durable substrate). 0 disables
	// worker crashes; the transient per-attempt model (FailureProb) is
	// then the only failure source. Crash times are drawn from per-worker
	// split RNG children (internal/recovery), so the schedule is
	// independent of the scheduling loop's straggler/failure stream.
	CrashMTTF simtime.Duration

	// AdaptCost is the fixed bookkeeping overhead of one adaptive
	// staleness-control decision (internal/adapt): re-stamping a
	// worker's effective bound and informing its gate. Decisions are
	// worker-local (no cross-node traffic), so the cost is small — well
	// under AsyncSyncOverhead — and is charged to the worker's critical
	// path only when the controller actually changes the bound; the
	// fixed policy never pays it.
	AdaptCost simtime.Duration

	// CheckpointCost is the fixed bookkeeping overhead of one worker
	// checkpoint (quiesce, version stamp, RPC setup); the snapshot bytes
	// additionally pay a replicated DFS write. Only paid when a
	// checkpoint policy is active.
	CheckpointCost simtime.Duration

	// RestoreCost is the fixed overhead of restarting a crashed worker
	// (container re-launch, task re-registration) before it re-reads its
	// checkpoint from the DFS and replays the lost steps.
	RestoreCost simtime.Duration

	// LiveNetScale scales the emulated publish-visibility delay of the
	// async live executor (internal/async live.go), the one cluster-model
	// quantity that mode keeps — in real time: a publication becomes
	// visible LiveNetScale × AsyncPushCost(bytes) of wall clock after it
	// is made. 1 replays the modeled network at full scale, 0 disables
	// the emulation (pure measured compute). The virtual-time executors
	// (DES, parallel) never read it.
	LiveNetScale float64

	// Seed drives all stochastic elements of the simulation (failure
	// draws, straggler jitter).
	Seed uint64

	// StragglerJitter is the relative standard deviation of per-task
	// slowdown, modeling the heterogeneity Zaharia et al. (OSDI'08)
	// observed on EC2. 0 disables jitter.
	StragglerJitter float64
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	// The float checks are negated so that NaN fails them too.
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes must be positive, got %d", c.Nodes)
	case c.MapSlotsPerNode <= 0:
		return fmt.Errorf("cluster: MapSlotsPerNode must be positive, got %d", c.MapSlotsPerNode)
	case c.ReduceSlotsPerNode <= 0:
		return fmt.Errorf("cluster: ReduceSlotsPerNode must be positive, got %d", c.ReduceSlotsPerNode)
	case !(c.ComputeRate > 0):
		return fmt.Errorf("cluster: ComputeRate must be positive, got %g", c.ComputeRate)
	case !(c.NetBandwidth > 0):
		return fmt.Errorf("cluster: NetBandwidth must be positive, got %g", c.NetBandwidth)
	case !(c.DFSBandwidth > 0):
		return fmt.Errorf("cluster: DFSBandwidth must be positive, got %g", c.DFSBandwidth)
	case c.DFSReplication <= 0:
		return fmt.Errorf("cluster: DFSReplication must be positive, got %d", c.DFSReplication)
	case !(c.FailureProb >= 0 && c.FailureProb < 1):
		return fmt.Errorf("cluster: FailureProb must be in [0,1), got %g", c.FailureProb)
	case !(c.CrossRackFraction >= 0 && c.CrossRackFraction <= 1):
		return fmt.Errorf("cluster: CrossRackFraction must be in [0,1], got %g", c.CrossRackFraction)
	case !(c.LiveNetScale >= 0):
		return fmt.Errorf("cluster: LiveNetScale must be non-negative, got %g", c.LiveNetScale)
	case !(c.StragglerJitter >= 0):
		return fmt.Errorf("cluster: StragglerJitter must be non-negative, got %g", c.StragglerJitter)
	}
	// !(d >= 0) refuses NaN as well as negative durations.
	for _, d := range []struct {
		name string
		d    simtime.Duration
	}{
		{"MapRecordCost", c.MapRecordCost}, {"ReduceRecordCost", c.ReduceRecordCost},
		{"EmitCost", c.EmitCost}, {"SortCostPerRecord", c.SortCostPerRecord},
		{"NetLatency", c.NetLatency}, {"JobOverhead", c.JobOverhead},
		{"TaskOverhead", c.TaskOverhead}, {"LocalSyncOverhead", c.LocalSyncOverhead},
		{"AsyncSyncOverhead", c.AsyncSyncOverhead}, {"CrashMTTF", c.CrashMTTF},
		{"AdaptCost", c.AdaptCost}, {"CheckpointCost", c.CheckpointCost},
		{"RestoreCost", c.RestoreCost},
	} {
		if !(d.d >= 0) {
			return fmt.Errorf("cluster: %s must be non-negative, got %v", d.name, d.d)
		}
	}
	return nil
}

// MapSlots returns the cluster-wide number of concurrent map tasks.
func (c *Config) MapSlots() int { return c.Nodes * c.MapSlotsPerNode }

// ReduceSlots returns the cluster-wide number of concurrent reduce tasks.
func (c *Config) ReduceSlots() int { return c.Nodes * c.ReduceSlotsPerNode }

// EC2LargeCluster returns the paper's Table I testbed: 8 extra-large EC2
// instances (8 EC2 compute units, 15 GB RAM each) running Hadoop 0.20.1.
//
// Calibration notes (all simulated):
//   - JobOverhead 12s: Hadoop 0.20 empty-job latency on EC2 was 10-25s
//     (job submission, scheduling heartbeats, JVM startup, setup/cleanup).
//   - Record costs of a few microseconds match the ~100-300K records/s/core
//     throughput of 2010-era Hadoop pipelines.
//   - 1 Gbps NICs (~110 MB/s effective), intra-EC2 RTT ~0.5 ms.
//   - HDFS 3-way replication over the same NICs.
func EC2LargeCluster() *Config {
	return &Config{
		Name:               "ec2-8-xlarge",
		Nodes:              8,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 2,
		ComputeRate:        2.0e7,
		MapRecordCost:      4 * simtime.Microsecond,
		ReduceRecordCost:   4 * simtime.Microsecond,
		EmitCost:           2 * simtime.Microsecond,
		SortCostPerRecord:  250e-9,
		NetLatency:         500 * simtime.Microsecond,
		NetBandwidth:       110e6,
		CrossRackFraction:  0,
		DFSReplication:     3,
		DFSBandwidth:       90e6,
		JobOverhead:        12 * simtime.Second,
		TaskOverhead:       800 * simtime.Millisecond,
		LocalSyncOverhead:  20 * simtime.Microsecond,
		AsyncSyncOverhead:  5 * simtime.Millisecond,
		AdaptCost:          100 * simtime.Microsecond,
		FailureProb:        0.002,
		CrashMTTF:          0, // worker crashes off by default; experiments opt in
		CheckpointCost:     250 * simtime.Millisecond,
		RestoreCost:        3 * simtime.Second,
		LiveNetScale:       1,
		Seed:               1,
		StragglerJitter:    0.08,
	}
}

// EC2CrossRackCluster is the Table I testbed with an oversubscribed
// aggregation layer: half the traffic crosses a 4:1 core. At small scale
// the async mode's one-time job launch dominates every figure; with
// cross-rack contention the per-publication push traffic and the
// staleness gate waits become material, which is what the paper-scale
// staleness sweep measures.
func EC2CrossRackCluster() *Config {
	c := EC2LargeCluster()
	c.Name = "ec2-8-xlarge-xrack"
	c.CrossRackFraction = 0.5
	return c
}

// CluECluster approximates the 460-node IBM-Google CluE cluster the paper
// used for its scalability remark (§VI): many more nodes, heavily shared
// network (cross-rack oversubscription), higher scheduling latency.
func CluECluster() *Config {
	c := EC2LargeCluster()
	c.Name = "clue-460"
	c.Nodes = 460
	c.MapSlotsPerNode = 2
	c.ReduceSlotsPerNode = 1
	c.NetBandwidth = 60e6
	c.CrossRackFraction = 0.7
	c.JobOverhead = 25 * simtime.Second
	c.TaskOverhead = 1500 * simtime.Millisecond
	c.AsyncSyncOverhead = 15 * simtime.Millisecond
	c.AdaptCost = 500 * simtime.Microsecond
	c.FailureProb = 0.006
	c.CheckpointCost = 500 * simtime.Millisecond
	c.RestoreCost = 8 * simtime.Second
	c.StragglerJitter = 0.15
	return c
}

// HPCCluster models a tightly-coupled parallel machine: same compute but
// microsecond-scale interconnect and negligible job overhead. Used by the
// ablation benches to reproduce the paper's §II claim that the benefit of
// partial synchronization is amplified on distributed (not HPC) platforms.
func HPCCluster() *Config {
	c := EC2LargeCluster()
	c.Name = "hpc-8"
	c.NetLatency = 2 * simtime.Microsecond
	c.NetBandwidth = 3e9
	c.DFSBandwidth = 2e9
	c.DFSReplication = 1
	c.JobOverhead = 50 * simtime.Millisecond
	c.TaskOverhead = 2 * simtime.Millisecond
	c.AsyncSyncOverhead = 50 * simtime.Microsecond
	c.AdaptCost = 2 * simtime.Microsecond
	c.FailureProb = 0
	c.CheckpointCost = 5 * simtime.Millisecond
	c.RestoreCost = 100 * simtime.Millisecond
	c.StragglerJitter = 0
	return c
}
