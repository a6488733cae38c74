package async

// Engine-level edge cases of the time-series sampler (Options.Series):
// an interval longer than the whole run, ring wraparound under a tiny
// capacity, forced stops, and crash recovery interleaved with sampler
// ticks. The workload-level inertness contract (sampled vs unsampled
// bit-identity, DES-vs-parallel series byte-equality) lives in
// asynctest's TestDifferential; this file drives the sampler itself with
// toy workloads. The live executor's sampler is deliberately NOT under
// determinism tests — a live series observes real interleaving and is
// reproducible only in shape (setup + final samples, monotone grid),
// which TestDifferential's live leg asserts.

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// TestSampleIntervalLongerThanRun: a grid coarser than the run yields
// exactly the two boundary samples — setup at time zero and final at
// the run's duration — and no interior ticks, on both deterministic
// executors.
func TestSampleIntervalLongerThanRun(t *testing.T) {
	for _, ex := range []Executor{DES, Parallel} {
		vals := []int64{3, 9, 1, 7}
		ser := metrics.NewSeries(1e6*simtime.Second, 0)
		stats, err := Run(quietCluster(), maxProp(vals), Options{Staleness: 2, Executor: ex, Series: ser})
		if err != nil {
			t.Fatalf("%v: %v", ex, err)
		}
		if stats.SeriesTicks != 0 {
			t.Fatalf("%v: %d interior ticks fired with the interval beyond the run", ex, stats.SeriesTicks)
		}
		if stats.SeriesSamples != 2 || ser.Len() != 2 || ser.Dropped() != 0 {
			t.Fatalf("%v: want exactly the setup and final samples, got %d recorded, %d held, %d dropped",
				ex, stats.SeriesSamples, ser.Len(), ser.Dropped())
		}
		smp := ser.Samples()
		if smp[0].Tick != 0 || smp[0].Time != 0 || smp[0].Steps != 0 {
			t.Fatalf("%v: setup sample off: %+v", ex, smp[0])
		}
		if smp[1].Time != stats.Duration || smp[1].Steps != stats.Steps {
			t.Fatalf("%v: final sample (t=%v steps=%d) does not close the run (t=%v steps=%d)",
				ex, smp[1].Time, smp[1].Steps, stats.Duration, stats.Steps)
		}
		if smp[0].Residual != -1 || smp[1].Residual != -1 {
			t.Fatalf("%v: toy workload has no Progressive view; residual must stay at the -1 sentinel", ex)
		}
	}
}

// TestSampleRingWraparound: a capacity smaller than the sample count
// drops the oldest samples, keeps the newest in order, and still counts
// every record in SeriesSamples.
func TestSampleRingWraparound(t *testing.T) {
	flat := func(p int) int64 { return 1e4 }
	base, err := Run(quietCluster(), counter(4, 40, flat), Options{Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	ser := metrics.NewSeries(base.Duration/64, 4)
	stats, err := Run(quietCluster(), counter(4, 40, flat), Options{Staleness: 2, Series: ser})
	if err != nil {
		t.Fatal(err)
	}
	if ser.Dropped() == 0 {
		t.Fatalf("no samples dropped at capacity 4 over %d ticks; wraparound untested", stats.SeriesTicks)
	}
	if ser.Len() != 4 {
		t.Fatalf("ring holds %d samples, capacity 4", ser.Len())
	}
	if stats.SeriesSamples != int64(ser.Len())+int64(ser.Dropped()) {
		t.Fatalf("stats report %d samples, ring accounts for %d held + %d dropped",
			stats.SeriesSamples, ser.Len(), ser.Dropped())
	}
	smp := ser.Samples()
	for i := 1; i < len(smp); i++ {
		if smp[i].Tick != smp[i-1].Tick+1 {
			t.Fatalf("surviving samples not consecutive oldest-first: ticks %d then %d", smp[i-1].Tick, smp[i].Tick)
		}
	}
	if last := smp[len(smp)-1]; last.Time != stats.Duration {
		t.Fatalf("newest surviving sample at t=%v, want the final boundary at %v", last.Time, stats.Duration)
	}
}

// TestSampleForcedStop: a MaxSteps force-stop mid-convergence still
// closes the series with a final boundary sample at the (unconverged)
// run's duration, and interior samples sit exactly on the grid.
func TestSampleForcedStop(t *testing.T) {
	flat := func(p int) int64 { return 1e4 }
	probe, err := Run(quietCluster(), counter(4, 1000, flat), Options{Staleness: 2, MaxSteps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Converged {
		t.Fatal("probe converged; the forced-stop case is vacuous")
	}
	interval := probe.Duration / 8
	ser := metrics.NewSeries(interval, 0)
	stats, err := Run(quietCluster(), counter(4, 1000, flat), Options{Staleness: 2, MaxSteps: 6, Series: ser})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged {
		t.Fatal("forced run reported converged")
	}
	if stats.SeriesTicks == 0 {
		t.Fatal("no interior ticks before the forced stop")
	}
	smp := ser.Samples()
	// The engine advances the grid by repeated addition, so reproduce
	// that here rather than multiplying (float accumulation differs).
	want, tick := simtime.Duration(0), int64(0)
	for _, s := range smp[1 : len(smp)-1] {
		for tick < s.Tick {
			want += interval
			tick++
		}
		if s.Time != want {
			t.Fatalf("interior tick %d at t=%v, want the grid point %v", s.Tick, s.Time, want)
		}
	}
	if last := smp[len(smp)-1]; last.Time != stats.Duration || last.Steps != stats.Steps {
		t.Fatalf("final sample (t=%v steps=%d) does not close the forced run (t=%v steps=%d)",
			last.Time, last.Steps, stats.Duration, stats.Steps)
	}
}

// TestSampleCrashDeterministic: with worker crashes interleaved with
// sampler ticks, a DES and a parallel run still produce byte-identical
// series files — recovery replays and the tick chain ride the same
// virtual clock.
func TestSampleCrashDeterministic(t *testing.T) {
	cfg := crashyCluster(cluster.EC2LargeCluster(), 4*simtime.Second)
	sampled := func(ex Executor) (*metrics.Series, *RunStats) {
		hetero := func(p int) int64 { return int64(1e4 * (1 + p)) }
		w := newRecCounter(t, 5, 30, hetero)
		w.strict = ex == DES
		ser := metrics.NewSeries(simtime.Second/2, 0)
		stats, err := Run(cluster.New(cfg), w, Options{Staleness: 2, Executor: ex, Series: ser})
		if err != nil {
			t.Fatalf("%v: %v", ex, err)
		}
		return ser, stats
	}
	desSer, desStats := sampled(DES)
	parSer, parStats := sampled(Parallel)
	if desStats.Crashes == 0 || desStats.Recoveries == 0 {
		t.Fatalf("no crashes struck (MTTF %v); the crash/sampler interleaving is vacuous", cfg.CrashMTTF)
	}
	if desStats.SeriesTicks != parStats.SeriesTicks || desStats.SeriesSamples != parStats.SeriesSamples {
		t.Fatalf("sampler accounting diverged: DES %d/%d, parallel %d/%d",
			desStats.SeriesTicks, desStats.SeriesSamples, parStats.SeriesTicks, parStats.SeriesSamples)
	}
	var desCSV, parCSV bytes.Buffer
	if err := desSer.WriteCSV(&desCSV); err != nil {
		t.Fatal(err)
	}
	if err := parSer.WriteCSV(&parCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(desCSV.Bytes(), parCSV.Bytes()) {
		t.Fatalf("crashy series diverged between executors:\nDES:\n%s\nParallel:\n%s", desCSV.String(), parCSV.String())
	}
	if _, err := metrics.ValidateSeries(desCSV.Bytes()); err != nil {
		t.Fatalf("crashy series fails validation: %v", err)
	}
}
