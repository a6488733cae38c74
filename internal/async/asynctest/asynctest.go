// Package asynctest holds the shared executor-parity harness for the
// asynchronous runtime's workload adapters. The parity contract —
// identical virtual-time stats and identical converged state across the
// sequential DES and the wall-clock-parallel executor, on every cluster
// preset the executor targets — is the same for PageRank, SSSP and
// K-Means; only the way a workload runs and what its converged state
// looks like differ. Each adapter's test supplies that as a Runner and
// delegates the sweep (presets × staleness bounds × executors, with and
// without worker crashes) to this package, instead of copy-pasting the
// loop.
package asynctest

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/adapt"
	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/trace"
)

// Runner executes the workload once on a fresh cluster built from cfg
// with the given options, returning the run's stats and a
// deep-comparable fingerprint of the converged state (ranks, distances,
// centroids, ...). Runners must build a fresh cluster per call —
// parity depends on replaying the RNG stream from the seed.
type Runner func(t *testing.T, cfg *cluster.Config, opt async.Options) (*async.RunStats, any)

// Presets returns the cluster cost models the executor-parity contract
// covers: the paper's cloud testbed, its cross-rack variant, and the
// HPC interconnect, whose microsecond publish latency makes speculated
// steps read stale input most often.
func Presets() []*cluster.Config {
	return []*cluster.Config{
		cluster.EC2LargeCluster(),
		cluster.EC2CrossRackCluster(),
		cluster.HPCCluster(),
	}
}

// Stalenesses is the default staleness axis of the parity sweeps:
// lockstep, an intermediate bound, and free-running.
func Stalenesses() []int { return []int{0, 2, async.Unbounded} }

// ExecutorSpecificStats names the RunStats fields StatsEqual exempts
// from the parity contract: the executor-specific observability
// counters, meaningful only under the parallel or live executor. Every other
// field is a virtual-time quantity and must match across executors —
// StatsEqual compares the struct by reflection, so a field added to
// RunStats is parity-checked by default and an exemption must be
// declared here (and is itself pinned by the field-drift test).
var ExecutorSpecificStats = map[string]bool{
	"Speculated":       true,
	"SpecDiscarded":    true,
	"SpecDepth":        true,
	"LiveComputeTime":  true,
	"LiveSteals":       true,
	"LiveWakes":        true,
	"LiveWakeLateTime": true,
}

// StatsEqual fails the test unless every virtual-time field of the two
// runs matches — including the crash fault model's and the staleness
// controller's counters. Fields listed in ExecutorSpecificStats are
// excluded.
func StatsEqual(t *testing.T, label string, des, par *async.RunStats) {
	t.Helper()
	dv := reflect.ValueOf(*des)
	pv := reflect.ValueOf(*par)
	rt := dv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if ExecutorSpecificStats[f.Name] {
			continue
		}
		if !reflect.DeepEqual(dv.Field(i).Interface(), pv.Field(i).Interface()) {
			t.Fatalf("%s: executors diverged on %s: %v vs %v\nDES:      %+v\nParallel: %+v",
				label, f.Name, dv.Field(i).Interface(), pv.Field(i).Interface(), des, par)
		}
	}
}

// CheckParallelMatchesDES runs the workload under both executors across
// Presets × stalenesses and fails on any divergence of virtual-time
// stats or converged state.
func CheckParallelMatchesDES(t *testing.T, stalenesses []int, run Runner) {
	t.Helper()
	var kept, discarded int64
	for i, cfg := range Presets() {
		for j, s := range stalenesses {
			opt := async.Options{Staleness: s}
			opt.Executor = async.DES
			desStats, desState := run(t, cfg, opt)
			opt.Executor = async.Parallel
			parStats, parState := run(t, cfg, opt)
			label := parityLabel(cfg, s)
			StatsEqual(t, label, desStats, parStats)
			if !reflect.DeepEqual(desState, parState) {
				t.Fatalf("%s: converged state diverged between executors", label)
			}
			if i+j == 0 {
				// What is speculated, kept and discarded is decided from
				// virtual-time state: a second run must count the same.
				if again, _ := run(t, cfg, opt); again.Speculated != parStats.Speculated ||
					again.SpecDiscarded != parStats.SpecDiscarded || again.SpecDepth != parStats.SpecDepth {
					t.Fatalf("%s: a second parallel run kept %d, discarded %d, depth %d; the first %d, %d, %d", label,
						again.Speculated, again.SpecDiscarded, again.SpecDepth, parStats.Speculated, parStats.SpecDiscarded, parStats.SpecDepth)
				}
			}
			t.Logf("%s: %d steps, %d speculations kept, %d discarded", label, parStats.Steps, parStats.Speculated, parStats.SpecDiscarded)
			kept += parStats.Speculated
			discarded += parStats.SpecDiscarded
		}
	}
	if kept == 0 || discarded == 0 {
		t.Fatalf("%d speculations kept and %d discarded over the whole sweep; parity says nothing about the commit or the undo path", kept, discarded)
	}
}

// CheckCrashParity is CheckParallelMatchesDES with worker crashes
// enabled: each preset first runs crash-free under DES to measure the
// run's natural length, then reruns both executors with CrashMTTF set
// to a quarter of it — several crashes strike every configuration, so
// the parity assertion (stats including Crashes/Recoveries/LostSteps,
// plus converged state) is never vacuous. pol selects the checkpoint
// policy (nil = none: recoveries replay from the job input).
func CheckCrashParity(t *testing.T, stalenesses []int, pol recovery.Policy, run Runner) {
	t.Helper()
	for _, cfg := range Presets() {
		for _, s := range stalenesses {
			base, _ := run(t, cfg, async.Options{Staleness: s})
			crashy := *cfg
			crashy.CrashMTTF = base.Duration / 4
			opt := async.Options{Staleness: s, Checkpoint: pol}
			opt.Executor = async.DES
			desStats, desState := run(t, &crashy, opt)
			opt.Executor = async.Parallel
			parStats, parState := run(t, &crashy, opt)
			label := parityLabel(cfg, s) + "/crashy"
			StatsEqual(t, label, desStats, parStats)
			if desStats.Crashes == 0 || desStats.Recoveries == 0 {
				t.Fatalf("%s: no crashes struck at MTTF %v (duration %v); parity proves nothing",
					label, crashy.CrashMTTF, base.Duration)
			}
			if !reflect.DeepEqual(desState, parState) {
				t.Fatalf("%s: converged state diverged between executors", label)
			}
		}
	}
}

// LiveNetScaleForTests is the emulated publish-visibility scale the
// live-vs-DES checks run at: small enough that the real-time sleeps it
// induces keep test runs fast, large enough that visibility ordering is
// still exercised (a 5.6 ms EC2 push becomes ~110 µs of real delay).
const LiveNetScaleForTests = 0.02

// CheckLiveMatchesDES runs the workload under the DES oracle and the
// live (measured-cost) executor across the staleness axis and checks
// convergence agreement. The live executor is not deterministic, so
// this is parity-by-tolerance, not bit parity: dist maps the two
// converged fingerprints to a scalar divergence compared against tol.
// A nil dist demands exact equality (reflect.DeepEqual) — correct for
// monotone workloads (CC min-labels, SSSP distances) whose fixed point
// is independent of update order; contractive workloads (PageRank,
// K-Means) pass a drift metric and a tolerance. Live-specific
// invariants are asserted alongside: the run converges whenever DES
// does, executes at least one step per partition, and never observes a
// staleness lead beyond the bound.
func CheckLiveMatchesDES(t *testing.T, stalenesses []int, tol float64, dist func(des, live any) float64, run Runner) {
	t.Helper()
	cfg := *cluster.EC2LargeCluster()
	cfg.LiveNetScale = LiveNetScaleForTests
	for _, s := range stalenesses {
		opt := async.Options{Staleness: s}
		opt.Executor = async.DES
		desStats, desState := run(t, &cfg, opt)
		opt.Executor = async.Live
		liveStats, liveState := run(t, &cfg, opt)
		label := parityLabel(&cfg, s) + "/live"
		if desStats.Converged && !liveStats.Converged {
			t.Fatalf("%s: DES converged but live did not\nDES:  %+v\nLive: %+v", label, desStats, liveStats)
		}
		if min := int64(len(liveStats.PerWorkerSteps)); liveStats.Steps < min {
			t.Fatalf("%s: live executed %d steps, want >= %d (one per partition)", label, liveStats.Steps, min)
		}
		if s >= 0 && liveStats.MaxLead > s {
			t.Fatalf("%s: live MaxLead %d exceeds staleness bound %d", label, liveStats.MaxLead, s)
		}
		if liveStats.Duration <= 0 || liveStats.LiveComputeTime <= 0 {
			t.Fatalf("%s: live measured nothing: duration %v, compute %v", label, liveStats.Duration, liveStats.LiveComputeTime)
		}
		if dist == nil {
			if !reflect.DeepEqual(desState, liveState) {
				t.Fatalf("%s: converged state diverged from the DES oracle (exact parity expected)", label)
			}
			continue
		}
		if d := dist(desState, liveState); d > tol {
			t.Fatalf("%s: converged state drifted %g from the DES oracle, tolerance %g", label, d, tol)
		}
	}
}

func parityLabel(cfg *cluster.Config, s int) string {
	if s < 0 {
		return cfg.Name + "/S=inf"
	}
	return cfg.Name + "/S=" + strconv.Itoa(s)
}

// AdaptivePolicies is the policy axis of the adaptive-mode parity
// sweeps: both dynamic controllers at their default parameters, plus a
// deliberately twitchy aimd (lockstep start, tiny cap, cut after every
// stalled step) that maximizes mid-run bound changes — the hard case
// for speculation under dynamic S.
func AdaptivePolicies() []adapt.Policy {
	twitchy, err := adapt.AIMD(0, 3, 1)
	if err != nil {
		panic(err)
	}
	return []adapt.Policy{adapt.AIMDDefault(), adapt.DriftDefault(), twitchy}
}

// CheckAdaptiveParity is the executor-parity contract under adaptive
// staleness control: for every preset × adaptive policy, the DES and
// parallel executors must report identical virtual-time stats —
// including the controller's AdaptRaises/AdaptCuts/StalenessMean/Max
// trajectory — and identical converged state, and the controller must
// have actually moved bounds somewhere in the sweep (otherwise the
// parity proves nothing about dynamic S).
func CheckAdaptiveParity(t *testing.T, run Runner) {
	t.Helper()
	var moved bool
	for _, cfg := range Presets() {
		for _, pol := range AdaptivePolicies() {
			opt := async.Options{Adapt: pol}
			opt.Executor = async.DES
			desStats, desState := run(t, cfg, opt)
			opt.Executor = async.Parallel
			parStats, parState := run(t, cfg, opt)
			label := cfg.Name + "/" + pol.String()
			StatsEqual(t, label, desStats, parStats)
			if !reflect.DeepEqual(desState, parState) {
				t.Fatalf("%s: converged state diverged between executors", label)
			}
			if desStats.AdaptRaises+desStats.AdaptCuts > 0 {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("no adaptive policy changed any bound on any preset; the adaptive parity sweep is vacuous")
	}
}

// CheckFixedPolicyIdentity pins that the explicit fixed policy is the
// identity controller: for each preset × staleness, a run with
// Adapt=adapt.Fixed(S) must be bit-identical — stats and converged
// state — to the plain engine run with the static bound S.
func CheckFixedPolicyIdentity(t *testing.T, stalenesses []int, run Runner) {
	t.Helper()
	for _, cfg := range Presets() {
		for _, s := range stalenesses {
			plainStats, plainState := run(t, cfg, async.Options{Staleness: s})
			fixedStats, fixedState := run(t, cfg, async.Options{Staleness: s, Adapt: adapt.Fixed(s)})
			label := parityLabel(cfg, s) + "/fixed-identity"
			StatsEqual(t, label, plainStats, fixedStats)
			if fixedStats.AdaptRaises != 0 || fixedStats.AdaptCuts != 0 {
				t.Fatalf("%s: fixed policy changed bounds: %+v", label, fixedStats)
			}
			if !reflect.DeepEqual(plainState, fixedState) {
				t.Fatalf("%s: converged state diverged from the static-bound engine", label)
			}
		}
	}
}

// SeriesStats names the RunStats fields that legitimately differ
// between a sampled and an unsampled run of the same configuration:
// the sampling layer's own accounting. The series-inertness comparison
// exempts exactly these; every other field must be bit-identical with
// sampling on or off. Pinned against field drift by the same test as
// ExecutorSpecificStats.
var SeriesStats = map[string]bool{
	"SeriesTicks":   true,
	"SeriesSamples": true,
}

// statsIdentical is the trace-inertness comparison: unlike StatsEqual
// it compares EVERY RunStats field, executor-specific counters
// included, because both runs used the same executor — the only
// variable is the recorder, which must change nothing.
func statsIdentical(t *testing.T, label string, off, on *async.RunStats) {
	t.Helper()
	statsIdenticalExcept(t, label, "tracing", off, on, nil)
}

// statsIdenticalExcept is statsIdentical with an exemption set: the
// series-inertness comparison passes SeriesStats, since the sampler's
// own tick/sample counters are definitionally zero when it is off.
func statsIdenticalExcept(t *testing.T, label, what string, off, on *async.RunStats, except map[string]bool) {
	t.Helper()
	ov := reflect.ValueOf(*off)
	nv := reflect.ValueOf(*on)
	rt := ov.Type()
	for i := 0; i < rt.NumField(); i++ {
		if except[rt.Field(i).Name] {
			continue
		}
		if !reflect.DeepEqual(ov.Field(i).Interface(), nv.Field(i).Interface()) {
			t.Fatalf("%s: %s is not inert: %s diverged: %v (off) vs %v (on)\noff: %+v\non:  %+v",
				label, what, rt.Field(i).Name, ov.Field(i).Interface(), nv.Field(i).Interface(), off, on)
		}
	}
}

// checkTracedPair runs the workload twice with identical options —
// recorder off, then on — and fails unless the two runs are
// bit-identical (every RunStats field and the converged state) while
// the recorder actually captured events. This is the heart of the
// tracing layer's inertness contract.
func checkTracedPair(t *testing.T, label string, cfg *cluster.Config, opt async.Options, run Runner) *trace.Recorder {
	t.Helper()
	opt.Trace = nil
	offStats, offState := run(t, cfg, opt)
	rec := trace.NewRecorder(1 << 20)
	opt.Trace = rec
	onStats, onState := run(t, cfg, opt)
	statsIdentical(t, label, offStats, onStats)
	if !reflect.DeepEqual(offState, onState) {
		t.Fatalf("%s: tracing is not inert: converged state diverged", label)
	}
	if rec.Len() == 0 {
		t.Fatalf("%s: recorder captured no events; the inertness check is vacuous", label)
	}
	return rec
}

// CheckTraceInert is the trace layer's contract check: attaching a
// trace.Recorder must not change a run. Covered legs: DES and parallel
// across presets × stalenesses (bit-identical stats and state, all
// fields), both executors under worker crashes with checkpoints
// (speculation invalidation and fault hooks), both under an adaptive
// policy (bound-change hooks), and the live executor against its DES
// oracle with the workload's usual tolerance (live runs are not
// reproducible, so traced-live is held to the same dist/tol contract
// as untraced-live, plus wall stamping must be armed). Event-kind
// coverage is asserted where it is deterministic.
func CheckTraceInert(t *testing.T, stalenesses []int, tol float64, dist func(des, live any) float64, run Runner) {
	t.Helper()
	presets := []*cluster.Config{cluster.EC2LargeCluster(), cluster.HPCCluster()}
	discards := 0
	for _, cfg := range presets {
		for _, s := range stalenesses {
			for _, ex := range []async.Executor{async.DES, async.Parallel} {
				opt := async.Options{Staleness: s, Executor: ex}
				label := parityLabel(cfg, s) + "/traced/" + ex.String()
				rec := checkTracedPair(t, label, cfg, opt, run)
				assertKinds(t, label, rec, trace.KindStepStart, trace.KindStepEnd, trace.KindPublish)
				if ex == async.Parallel {
					assertKinds(t, label, rec, trace.KindSpecDispatch, trace.KindSpecCommit)
					for _, e := range rec.Events() {
						if e.Kind == trace.KindSpecInvalidate {
							discards++
						}
					}
				}
			}
		}
	}
	if discards == 0 {
		t.Fatalf("no traced parallel run discarded a speculation; %v coverage is vacuous", trace.KindSpecInvalidate)
	}

	// Crash leg: crashes + checkpoints on both executors; under the
	// parallel executor recovery takes back in-flight speculation, the
	// hardest interleaving the hooks ride along with.
	cfg := cluster.EC2LargeCluster()
	s := stalenesses[len(stalenesses)-1]
	base, _ := run(t, cfg, async.Options{Staleness: s})
	crashy := *cfg
	crashy.CrashMTTF = base.Duration / 4
	for _, ex := range []async.Executor{async.DES, async.Parallel} {
		opt := async.Options{Staleness: s, Executor: ex, Checkpoint: recovery.EverySteps(4)}
		label := parityLabel(cfg, s) + "/traced/crashy/" + ex.String()
		rec := checkTracedPair(t, label, &crashy, opt, run)
		assertKinds(t, label, rec, trace.KindCrash, trace.KindRecovery, trace.KindCheckpoint)
	}

	// Adaptive leg: the bound-change hook must be inert too.
	for _, ex := range []async.Executor{async.DES, async.Parallel} {
		opt := async.Options{Adapt: adapt.AIMDDefault(), Executor: ex}
		label := cfg.Name + "/traced/adaptive/" + ex.String()
		checkTracedPair(t, label, cfg, opt, run)
	}

	// Live leg: not reproducible run to run, so inertness is asserted
	// as "a traced live run still satisfies the DES-oracle contract",
	// with both time domains stamped.
	live := *cfg
	live.LiveNetScale = LiveNetScaleForTests
	oracleStats, oracleState := run(t, &live, async.Options{Staleness: 2})
	rec := trace.NewRecorder(1 << 20)
	opt := async.Options{Staleness: 2, Executor: async.Live, Trace: rec}
	liveStats, liveState := run(t, &live, opt)
	label := live.Name + "/traced/live"
	if oracleStats.Converged && !liveStats.Converged {
		t.Fatalf("%s: DES converged but traced live did not", label)
	}
	if dist == nil {
		if !reflect.DeepEqual(oracleState, liveState) {
			t.Fatalf("%s: traced live diverged from the DES oracle (exact parity expected)", label)
		}
	} else if d := dist(oracleState, liveState); d > tol {
		t.Fatalf("%s: traced live drifted %g from the DES oracle, tolerance %g", label, d, tol)
	}
	assertKinds(t, label, rec, trace.KindStepStart, trace.KindStepEnd, trace.KindPublish)
	var walled bool
	for _, e := range rec.Events() {
		if e.Wall > 0 {
			walled = true
			break
		}
	}
	if !walled {
		t.Fatalf("%s: live trace carries no wall stamps; StartWall was not armed", label)
	}
}

// checkSampledPair runs the workload twice with identical options —
// series off, then on — and fails unless the two runs are bit-identical
// (every RunStats field except the sampler's own SeriesStats counters,
// plus the converged state) while the sampler actually captured interior
// ticks. The interval is derived from the unsampled run's virtual
// duration, so DES and parallel derive the same grid. Returns the
// captured series.
func checkSampledPair(t *testing.T, label string, cfg *cluster.Config, opt async.Options, run Runner) *metrics.Series {
	t.Helper()
	opt.Series = nil
	offStats, offState := run(t, cfg, opt)
	ser := metrics.NewSeries(offStats.Duration/32, 0)
	opt.Series = ser
	onStats, onState := run(t, cfg, opt)
	statsIdenticalExcept(t, label, "sampling", offStats, onStats, SeriesStats)
	if !reflect.DeepEqual(offState, onState) {
		t.Fatalf("%s: sampling is not inert: converged state diverged", label)
	}
	if onStats.SeriesTicks == 0 || ser.Len() < 3 {
		t.Fatalf("%s: series captured %d samples over %d interior ticks; the inertness check is vacuous",
			label, ser.Len(), onStats.SeriesTicks)
	}
	if onStats.SeriesSamples != int64(ser.Len())+int64(ser.Dropped()) {
		t.Fatalf("%s: stats report %d samples but the series holds %d (+%d dropped)",
			label, onStats.SeriesSamples, ser.Len(), ser.Dropped())
	}
	return ser
}

// CheckSeriesInert is the metrics layer's contract check: attaching a
// metrics.Series must not change a run, and the series itself must be
// deterministic. Covered legs: DES and parallel across two presets ×
// stalenesses (sampled-vs-unsampled bit-identity, then the DES and
// parallel series compared as CSV and JSON bytes — the sampler grid
// rides the same virtual clock, so the files must be byte-identical and
// must validate), both executors under worker crashes with checkpoints
// (recovery interleaved with sampler ticks), and the live executor
// against its DES oracle with the workload's usual tolerance (live
// series are not reproducible — see the non-goal note on the live
// sampler — so the leg asserts the convergence contract plus wall
// stamping instead of bit-identity).
func CheckSeriesInert(t *testing.T, stalenesses []int, tol float64, dist func(des, live any) float64, run Runner) {
	t.Helper()
	presets := []*cluster.Config{cluster.EC2LargeCluster(), cluster.HPCCluster()}
	for _, cfg := range presets {
		for _, s := range stalenesses {
			var sers [2]*metrics.Series
			for i, ex := range []async.Executor{async.DES, async.Parallel} {
				opt := async.Options{Staleness: s, Executor: ex}
				label := parityLabel(cfg, s) + "/sampled/" + ex.String()
				sers[i] = checkSampledPair(t, label, cfg, opt, run)
			}
			label := parityLabel(cfg, s) + "/sampled/cross-executor"
			var desCSV, parCSV, desJSON, parJSON bytes.Buffer
			for i, ser := range sers {
				csv, js := &desCSV, &desJSON
				if i == 1 {
					csv, js = &parCSV, &parJSON
				}
				if err := ser.WriteCSV(csv); err != nil {
					t.Fatalf("%s: WriteCSV: %v", label, err)
				}
				if err := ser.WriteJSON(js); err != nil {
					t.Fatalf("%s: WriteJSON: %v", label, err)
				}
			}
			if !bytes.Equal(desCSV.Bytes(), parCSV.Bytes()) {
				t.Fatalf("%s: CSV series diverged between executors:\nDES:\n%s\nParallel:\n%s",
					label, desCSV.String(), parCSV.String())
			}
			if !bytes.Equal(desJSON.Bytes(), parJSON.Bytes()) {
				t.Fatalf("%s: JSON series diverged between executors", label)
			}
			if _, err := metrics.ValidateSeries(desCSV.Bytes()); err != nil {
				t.Fatalf("%s: CSV series fails validation: %v", label, err)
			}
			if _, err := metrics.ValidateSeries(desJSON.Bytes()); err != nil {
				t.Fatalf("%s: JSON series fails validation: %v", label, err)
			}
		}
	}

	// Crash leg: crashes + checkpoints with sampler ticks interleaved on
	// the same event heap, on both executors.
	cfg := cluster.EC2LargeCluster()
	s := stalenesses[len(stalenesses)-1]
	base, _ := run(t, cfg, async.Options{Staleness: s})
	crashy := *cfg
	crashy.CrashMTTF = base.Duration / 4
	for _, ex := range []async.Executor{async.DES, async.Parallel} {
		opt := async.Options{Staleness: s, Executor: ex, Checkpoint: recovery.EverySteps(4)}
		label := parityLabel(cfg, s) + "/sampled/crashy/" + ex.String()
		checkSampledPair(t, label, &crashy, opt, run)
	}

	// Live leg: not reproducible run to run, so inertness is asserted as
	// "a sampled live run still satisfies the DES-oracle contract", with
	// wall stamps present on the samples.
	live := *cfg
	live.LiveNetScale = LiveNetScaleForTests
	oracleStats, oracleState := run(t, &live, async.Options{Staleness: 2})
	ser := metrics.NewSeries(1e-3, 0) // 1 ms real-time grid
	opt := async.Options{Staleness: 2, Executor: async.Live, Series: ser}
	liveStats, liveState := run(t, &live, opt)
	label := live.Name + "/sampled/live"
	if oracleStats.Converged && !liveStats.Converged {
		t.Fatalf("%s: DES converged but sampled live did not", label)
	}
	if dist == nil {
		if !reflect.DeepEqual(oracleState, liveState) {
			t.Fatalf("%s: sampled live diverged from the DES oracle (exact parity expected)", label)
		}
	} else if d := dist(oracleState, liveState); d > tol {
		t.Fatalf("%s: sampled live drifted %g from the DES oracle, tolerance %g", label, d, tol)
	}
	if ser.Len() < 2 {
		t.Fatalf("%s: live series has %d samples, want >= 2 (setup + final)", label, ser.Len())
	}
	if liveStats.SeriesSamples != int64(ser.Len())+int64(ser.Dropped()) {
		t.Fatalf("%s: stats report %d samples but the series holds %d (+%d dropped)",
			label, liveStats.SeriesSamples, ser.Len(), ser.Dropped())
	}
	var walled bool
	for _, smp := range ser.Samples() {
		if smp.Wall > 0 {
			walled = true
			break
		}
	}
	if !walled {
		t.Fatalf("%s: live series carries no wall stamps", label)
	}
}

// assertKinds fails unless the recorder captured at least one event of
// every listed kind.
func assertKinds(t *testing.T, label string, rec *trace.Recorder, kinds ...trace.Kind) {
	t.Helper()
	events := rec.Events()
	for _, k := range kinds {
		found := false
		for _, e := range events {
			if e.Kind == k {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: trace captured no %v events (%d total); kind coverage is vacuous", label, k, len(events))
		}
	}
}

// UndoWorkload is what an adapter hands CheckUndo.
type UndoWorkload[D any] interface {
	async.Undoable[D]
	async.Recoverable[D]
}

// CheckUndo pins the async.Undoable contract on one adapter. Two copies
// of a job (fresh builds one) step through lockstep rounds on what their
// neighbors published up to the round before. Copy b makes each step
// alone. Copy a first does what the parallel executor does to a
// speculation that read stale input — save, step on the version-0
// snapshots, undo — then has its per-step scratch overwritten by poison
// with values no step can use unnoticed, then steps: outcome and every
// field a checkpoint captures (the residual is one) must agree bit for
// bit. One undo buffer serves all partitions in turn, as the executor's
// slots do. With ckpt, a is checkpointed after the rounds and goes on
// alone, through more save-step-undo cycles than any buffer rotation is
// long; restoring must bring it back to where b still is — undo built on
// Checkpoint, whose snapshot has a single holder (async.Recoverable),
// fails here.
func CheckUndo[D any](t *testing.T, fresh func() UndoWorkload[D], poison func(w UndoWorkload[D], p int), ckpt bool) {
	t.Helper()
	const rounds = 4
	a, b := fresh(), fresh()
	first := make([]async.Snapshot[D], a.Parts())
	for p := range first {
		first[p].Part = p
		first[p].Data, _ = a.Init(p)
	}
	last, next := slices.Clone(first), slices.Clone(first)
	read := func(from []async.Snapshot[D], p int) (in []async.Snapshot[D]) {
		for _, q := range a.Neighbors(p) {
			in = append(in, from[q])
		}
		return in
	}
	same := func(p int, when string) {
		t.Helper()
		ca, _ := a.Checkpoint(p)
		cb, _ := b.Checkpoint(p)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("partition %d, %s: state differs from the lone steps'", p, when)
		}
	}
	var buf any
	var ckpts []any
	undone := 0
	for step := 0; step < rounds+3; step++ {
		for p := range first {
			buf = a.SaveUndo(p, buf)
			if out := a.Step(p, step, read(first, p)); out.Publish || !out.Quiescent {
				undone++ // the stale step did something worth undoing
			}
			a.Restore(p, buf)
			poison(a, p)
			got := a.Step(p, step, read(last, p))
			if step >= rounds {
				continue // a goes on alone
			}
			if want := b.Step(p, step, read(last, p)); !reflect.DeepEqual(got, want) {
				t.Fatalf("partition %d step %d: outcome after undo differs from the lone step's", p, step)
			} else if want.Publish {
				next[p].Version, next[p].Data = last[p].Version+1, want.Data
			}
			same(p, "undone and stepped")
		}
		copy(last, next)
		if step == rounds-1 {
			if undone == 0 {
				t.Fatal("no stale step changed anything; the undo was never needed")
			} else if !ckpt {
				return
			}
			for p := range first {
				c, _ := a.Checkpoint(p)
				ckpts = append(ckpts, c)
			}
		}
	}
	for p, c := range ckpts {
		a.Restore(p, c)
		same(p, "checkpoint restored")
	}
}
