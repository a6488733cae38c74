package async

import (
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/simtime"
)

// noisyCluster enables the full stochastic noise so adaptive runs
// exercise the hardest draw-ordering case.
func noisyCluster() *cluster.Config {
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0.05
	cfg.StragglerJitter = 0.2
	return cfg
}

// heteroOps gives partition 0 ~20x the compute of the rest, the classic
// straggler shape that drives gate waits at tight bounds.
func heteroOps(p int) int64 {
	if p == 0 {
		return 2e5
	}
	return 1e4
}

// TestAdaptiveFixedPolicyIsIdentity: an explicit adapt.Fixed(S) policy
// must be bit-identical to the engine's static-bound path (Adapt nil) —
// same stats, same converged state, no bound changes — on a noisy
// cluster where any divergence in draw order would show.
func TestAdaptiveFixedPolicyIsIdentity(t *testing.T) {
	cfg := noisyCluster()
	for _, s := range []int{0, 2, Unbounded} {
		run := func(pol adapt.Policy) ([]int64, *RunStats) {
			vals := []int64{3, 9, 1, 7, 2, 8}
			stats, err := Run(cluster.New(cfg), maxProp(vals), Options{Staleness: s, Adapt: pol})
			if err != nil {
				t.Fatalf("S=%d: %v", s, err)
			}
			return vals, stats
		}
		plainVals, plain := run(nil)
		fixedVals, fixed := run(adapt.Fixed(s))
		statsEqual(t, "fixed-identity", plain, fixed)
		if plain.AdaptRaises != 0 || plain.AdaptCuts != 0 || fixed.AdaptRaises != 0 || fixed.AdaptCuts != 0 {
			t.Fatalf("S=%d: fixed bound changed: plain %d/%d fixed %d/%d",
				s, plain.AdaptRaises, plain.AdaptCuts, fixed.AdaptRaises, fixed.AdaptCuts)
		}
		if plain.StalenessMax != s || fixed.StalenessMax != s {
			t.Fatalf("S=%d: StalenessMax %d/%d, want the static bound", s, plain.StalenessMax, fixed.StalenessMax)
		}
		if plain.StalenessMean != float64(s) {
			t.Fatalf("S=%d: StalenessMean %g", s, plain.StalenessMean)
		}
		if !reflect.DeepEqual(plainVals, fixedVals) {
			t.Fatalf("S=%d: converged state diverged: %v vs %v", s, plainVals, fixedVals)
		}
	}
}

// TestAdaptiveAIMDRelievesGateWaits: starting at lockstep on a workload
// with a 20x straggler, the aimd policy must raise the fast workers'
// bounds (observable as AdaptRaises and StalenessMax > 0) and spend
// less total time parked at the gate than the fixed lockstep run, while
// still converging to the exact same state — the monotone counter's
// targets do not depend on the bound.
func TestAdaptiveAIMDRelievesGateWaits(t *testing.T) {
	cfg := quietCluster().Config()
	run := func(pol adapt.Policy) *RunStats {
		stats, err := Run(cluster.New(cfg), counter(4, 40, heteroOps), Options{Staleness: 0, Adapt: pol})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			t.Fatal("not converged")
		}
		return stats
	}
	lockstep := run(nil)
	if lockstep.GateWaitTime <= 0 {
		t.Fatalf("lockstep run booked %d gate waits but no gate-wait time", lockstep.GateWaits)
	}
	pol, err := adapt.AIMD(0, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	aimd := run(pol)
	if aimd.AdaptRaises == 0 {
		t.Fatalf("aimd never raised a bound: %+v", aimd)
	}
	if aimd.StalenessMax == 0 {
		t.Fatalf("aimd StalenessMax stayed at lockstep: %+v", aimd)
	}
	if aimd.GateWaitTime >= lockstep.GateWaitTime {
		t.Fatalf("aimd gate-wait time %v not below fixed lockstep's %v",
			aimd.GateWaitTime, lockstep.GateWaitTime)
	}
	if aimd.MaxLead > aimd.StalenessMax {
		t.Fatalf("lead %d exceeds the largest bound in force %d", aimd.MaxLead, aimd.StalenessMax)
	}
}

// TestAdaptiveDeterministic: adaptive runs replay exactly — the
// controller's decisions ride the deterministic event order, so the
// whole trajectory (raises, cuts, mean, durations) is a pure function
// of the configuration even with stragglers and transient failures on.
func TestAdaptiveDeterministic(t *testing.T) {
	cfg, pol := noisyCluster(), adapt.AIMDDefault()
	run := func() *RunStats {
		stats, err := Run(cluster.New(cfg), counter(5, 30, heteroOps), Options{Adapt: pol})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	statsEqual(t, pol.String()+"/replay", a, b)
}

// TestAdaptiveParallelParity is the engine-level determinism contract
// under dynamic S: on every parity preset, for every adaptive policy —
// including the twitchy aimd that changes bounds constantly — the
// parallel executor must reproduce the DES bit for bit while actually
// speculating. CI runs this under -race -cpu 1,4.
func TestAdaptiveParallelParity(t *testing.T) {
	policies := []adapt.Policy{adapt.AIMDDefault()}
	if twitchy, err := adapt.AIMD(0, 3, 1); err != nil {
		t.Fatal(err)
	} else {
		policies = append(policies, twitchy)
	}
	var speculated int64
	for _, cfg := range parityClusters() {
		for _, pol := range policies {
			run := func(ex Executor) *RunStats {
				stats, err := Run(cluster.New(cfg), counter(6, 30, heteroOps), Options{Adapt: pol, Executor: ex})
				if err != nil {
					t.Fatalf("%s %s %v: %v", cfg.Name, pol, ex, err)
				}
				return stats
			}
			des := run(DES)
			par := run(Parallel)
			statsEqual(t, cfg.Name+"/"+pol.String(), des, par)
			speculated += par.Speculated
			if des.AdaptRaises+des.AdaptCuts == 0 {
				t.Fatalf("%s/%s: controller never moved; parity proves nothing about dynamic S", cfg.Name, pol)
			}
		}
	}
	if speculated == 0 {
		t.Fatal("no adaptive parallel run speculated; dynamic bounds under speculation were not exercised")
	}
}

// TestAdaptiveCrashParity combines the two dynamic subsystems: worker
// crashes (restore+replay recovery) under adaptive staleness control,
// across both executors. The controller state deliberately survives a
// crash (it is scheduler-side bookkeeping, like the run's stats), and
// both executors must agree on every counter and on the converged
// state.
func TestAdaptiveCrashParity(t *testing.T) {
	pol := adapt.AIMDDefault()
	for _, base := range parityClusters() {
		cfg := crashyCluster(base, 3*simtime.Second)
		run := func(ex Executor) ([]int64, *RunStats) {
			return runRecCounter(t, cfg, Options{Adapt: pol, Executor: ex})
		}
		desVals, desStats := run(DES)
		parVals, parStats := run(Parallel)
		statsEqual(t, cfg.Name+"/"+pol.String()+"/crash", desStats, parStats)
		if desStats.Crashes == 0 {
			t.Fatalf("%s/%s: no crashes struck", cfg.Name, pol)
		}
		if !reflect.DeepEqual(desVals, parVals) {
			t.Fatalf("%s/%s: converged state diverged: %v vs %v", cfg.Name, pol, desVals, parVals)
		}
	}
}

// TestAdaptiveDecisionCostCharged: bound changes are priced onto the
// worker's critical path via Config.AdaptCost — the same run with an
// expensive controller must take longer in virtual time, and a fixed
// policy must never pay it.
func TestAdaptiveDecisionCostCharged(t *testing.T) {
	base := quietCluster().Config()
	pricey := *base
	pricey.AdaptCost = 100 * simtime.Millisecond
	pol, err := adapt.AIMD(0, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg *cluster.Config, pol adapt.Policy) *RunStats {
		stats, err := Run(cluster.New(cfg), counter(4, 40, heteroOps), Options{Adapt: pol})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	cheap := run(base, pol)
	costly := run(&pricey, pol)
	if cheap.AdaptRaises == 0 {
		t.Fatal("controller never moved; the cost knob was not exercised")
	}
	if costly.Duration <= cheap.Duration {
		t.Fatalf("expensive controller (%v) not slower than free one (%v)", costly.Duration, cheap.Duration)
	}
	fixedCheap := run(base, nil)
	fixedCostly := run(&pricey, nil)
	if fixedCheap.Duration != fixedCostly.Duration {
		t.Fatalf("fixed policy paid the adapt cost: %v vs %v", fixedCheap.Duration, fixedCostly.Duration)
	}
}
