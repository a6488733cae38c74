package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []*Config{EC2LargeCluster(), CluECluster(), HPCCluster()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", cfg.Name, err)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.MapSlotsPerNode = -1 },
		func(c *Config) { c.ReduceSlotsPerNode = 0 },
		func(c *Config) { c.ComputeRate = 0 },
		func(c *Config) { c.NetBandwidth = -5 },
		func(c *Config) { c.DFSBandwidth = 0 },
		func(c *Config) { c.DFSReplication = 0 },
		func(c *Config) { c.FailureProb = 1.5 },
		func(c *Config) { c.CrossRackFraction = 2 },
		func(c *Config) { c.AdaptCost = -simtime.Microsecond },
		func(c *Config) { c.JobOverhead = -simtime.Second },
		func(c *Config) { c.TaskOverhead = simtime.Duration(math.NaN()) },
		func(c *Config) { c.MapRecordCost = -simtime.Microsecond },
		func(c *Config) { c.ReduceRecordCost = simtime.Duration(math.NaN()) },
		func(c *Config) { c.EmitCost = -simtime.Microsecond },
		func(c *Config) { c.SortCostPerRecord = -1e-9 },
		func(c *Config) { c.NetLatency = simtime.Duration(math.NaN()) },
		func(c *Config) { c.LocalSyncOverhead = -simtime.Microsecond },
		func(c *Config) { c.CrashMTTF = simtime.Duration(math.NaN()) },
		func(c *Config) { c.ComputeRate = math.NaN() },
		func(c *Config) { c.NetBandwidth = math.NaN() },
		func(c *Config) { c.DFSBandwidth = math.NaN() },
		func(c *Config) { c.FailureProb = math.NaN() },
		func(c *Config) { c.CrossRackFraction = math.NaN() },
		func(c *Config) { c.LiveNetScale = math.NaN() },
		func(c *Config) { c.StragglerJitter = math.NaN() },
	}
	for i, mutate := range mutations {
		cfg := EC2LargeCluster()
		mutate(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestTableISpecs(t *testing.T) {
	// The preset must match the paper's Table I topology: 8 instances.
	cfg := EC2LargeCluster()
	if cfg.Nodes != 8 {
		t.Fatalf("EC2 preset has %d nodes, Table I says 8", cfg.Nodes)
	}
	if cfg.DFSReplication != 3 {
		t.Fatalf("HDFS replication %d, want 3", cfg.DFSReplication)
	}
	// The premise of the paper: local sync is orders of magnitude
	// cheaper than a global barrier.
	if cfg.LocalSyncOverhead >= cfg.JobOverhead/1000 {
		t.Fatalf("local sync %v not << job overhead %v", cfg.LocalSyncOverhead, cfg.JobOverhead)
	}
}

func TestSlotArithmetic(t *testing.T) {
	cfg := EC2LargeCluster()
	if got := cfg.MapSlots(); got != cfg.Nodes*cfg.MapSlotsPerNode {
		t.Fatalf("MapSlots = %d", got)
	}
	if got := cfg.ReduceSlots(); got != cfg.Nodes*cfg.ReduceSlotsPerNode {
		t.Fatalf("ReduceSlots = %d", got)
	}
}

func TestComputeCostLinear(t *testing.T) {
	c := New(EC2LargeCluster())
	d1 := c.ComputeCost(1000)
	d2 := c.ComputeCost(2000)
	if math.Abs(float64(d2)-2*float64(d1)) > 1e-12 {
		t.Fatalf("compute cost not linear: %v vs %v", d1, d2)
	}
	if c.ComputeCost(0) != 0 {
		t.Fatal("zero ops should cost zero")
	}
}

func TestTransferCostMonotone(t *testing.T) {
	c := New(EC2LargeCluster())
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return c.TransferCost(x) <= c.TransferCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Latency floor.
	if c.TransferCost(1) < c.Config().NetLatency {
		t.Fatal("transfer cheaper than latency")
	}
}

func TestCrossRackSlowsTransfers(t *testing.T) {
	flat := New(EC2LargeCluster())
	congested := EC2LargeCluster()
	congested.CrossRackFraction = 0.8
	cc := New(congested)
	const bytes = 100 << 20
	if cc.TransferCost(bytes) <= flat.TransferCost(bytes) {
		t.Fatal("cross-rack oversubscription did not slow transfer")
	}
}

func TestDFSCosts(t *testing.T) {
	c := New(EC2LargeCluster())
	if c.DFSWriteCost(0) != 0 || c.DFSReadCost(0, true) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
	// Remote reads cost more than local.
	if c.DFSReadCost(1<<20, false) <= c.DFSReadCost(1<<20, true) {
		t.Fatal("remote read not more expensive than local")
	}
	// Write pays the replication pipeline fill.
	w := c.DFSWriteCost(1 << 20)
	if w <= simtime.Duration(float64(1<<20)/c.Config().DFSBandwidth) {
		t.Fatal("write cheaper than single-copy disk stream")
	}
}

func TestHPCCheaperSyncThanCloud(t *testing.T) {
	// The §II premise: global synchronization costs much less on an HPC
	// interconnect, so the eager advantage shrinks there.
	hpc, ec2 := HPCCluster(), EC2LargeCluster()
	if hpc.JobOverhead >= ec2.JobOverhead/10 {
		t.Fatal("HPC job overhead not substantially cheaper")
	}
	if hpc.NetLatency >= ec2.NetLatency {
		t.Fatal("HPC latency not cheaper")
	}
}

func TestTaskAttemptsDeterministicAndBounded(t *testing.T) {
	cfg := EC2LargeCluster()
	cfg.FailureProb = 0.3 // exaggerated for the test
	a := New(cfg)
	b := New(cfg)
	totalA, totalB := 0, 0
	for i := 0; i < 1000; i++ {
		at, wa := a.TaskAttempts()
		bt, wb := b.TaskAttempts()
		if at != bt || wa != wb {
			t.Fatalf("attempt streams diverged at %d", i)
		}
		if at < 1 || at > 17 {
			t.Fatalf("attempts %d out of bounds", at)
		}
		if wa < 0 {
			t.Fatalf("negative wasted work %g", wa)
		}
		totalA += at
		totalB += bt
	}
	// Roughly geometric: mean attempts ~ 1/(1-p) = 1.43.
	mean := float64(totalA) / 1000
	if mean < 1.2 || mean > 1.7 {
		t.Fatalf("mean attempts %g, want ~1.43", mean)
	}
}

func TestNoFailuresWhenDisabled(t *testing.T) {
	cfg := EC2LargeCluster()
	cfg.FailureProb = 0
	c := New(cfg)
	for i := 0; i < 100; i++ {
		if a, w := c.TaskAttempts(); a != 1 || w != 0 {
			t.Fatal("failure sampled with FailureProb=0")
		}
	}
}

func TestStragglerFactorBounds(t *testing.T) {
	c := New(EC2LargeCluster())
	for i := 0; i < 10000; i++ {
		f := c.StragglerFactor()
		if f < 0.7 {
			t.Fatalf("straggler factor %g below floor", f)
		}
		if f > 3 {
			t.Fatalf("straggler factor %g implausibly high", f)
		}
	}
	cfg := EC2LargeCluster()
	cfg.StragglerJitter = 0
	if New(cfg).StragglerFactor() != 1 {
		t.Fatal("jitter disabled but factor != 1")
	}
}

func TestMetricsAccounting(t *testing.T) {
	c := New(EC2LargeCluster())
	c.AddComputeOps(7)
	snap := c.Metrics()
	if snap.ComputeOps != 7 {
		t.Fatalf("metrics snapshot %+v", snap)
	}
	// Snapshot is a copy: adding to the cluster later is invisible.
	c.AddComputeOps(1)
	if snap.ComputeOps != 7 || c.Metrics().ComputeOps != 8 {
		t.Fatalf("snapshot %+v, cluster %+v after a second add", snap, c.Metrics())
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(&Config{})
}

func TestAsyncPushCost(t *testing.T) {
	c := New(EC2LargeCluster())
	// A publish pays the fixed sync overhead plus the transfer.
	if got := c.AsyncPushCost(0); got != c.Config().AsyncSyncOverhead+c.TransferCost(0) {
		t.Fatalf("zero-byte push = %v", got)
	}
	if c.AsyncPushCost(1<<20) <= c.AsyncPushCost(0) {
		t.Fatal("push cost not increasing in bytes")
	}
	// The async mode's premise: a publication costs far less than a
	// global job barrier, and more than an in-memory local sync.
	cfg := c.Config()
	if cfg.AsyncSyncOverhead >= cfg.JobOverhead/100 {
		t.Fatalf("async sync %v not << job overhead %v", cfg.AsyncSyncOverhead, cfg.JobOverhead)
	}
	if cfg.AsyncSyncOverhead <= cfg.LocalSyncOverhead {
		t.Fatalf("async sync %v not above local sync %v", cfg.AsyncSyncOverhead, cfg.LocalSyncOverhead)
	}
}

func TestAsyncSyncOverheadInPresets(t *testing.T) {
	for _, cfg := range []*Config{EC2LargeCluster(), CluECluster(), HPCCluster()} {
		if cfg.AsyncSyncOverhead <= 0 {
			t.Errorf("preset %s has no AsyncSyncOverhead", cfg.Name)
		}
	}
	bad := EC2LargeCluster()
	bad.AsyncSyncOverhead = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative AsyncSyncOverhead not caught")
	}
}
