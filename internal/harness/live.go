package harness

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/stats"
)

// LiveWorkerCounts is the cores axis of the live-executor figure.
var LiveWorkerCounts = []int{1, 2, 4}

// liveScalingTol bounds the converged-rank drift between the live runs
// and the DES oracle at each staleness bound. Live is not
// deterministic, so this is a tolerance, not bit parity; the strict
// per-workload bound lives in internal/async/asynctest's differential
// check (TestDifferential).
const liveScalingTol = 1e-2

// figureLiveScaling measures the live executor at the suite preset's
// LiveNetScale. Every preset ships 1: a publication takes the model's
// push time (5.6 ms on the EC2 testbed) to become visible, in real time,
// which is the paper's regime; at much smaller scales compute takes over
// and the speedup shrinks (EXPERIMENTS.md, livescaling). It runs real
// partition compute
// on the goroutine pool, costs taken from monotonic wall-clock
// deltas rather than the cluster cost model. For each worker count it
// times one async PageRank run at S=0 (lockstep: every step waits for
// every neighbor's latest publication to become visible) and at S=inf
// (free-running: stale reads tolerated, visibility latency overlapped
// with compute) and reports the measured speedup of free-running over
// lockstep — the paper's headline claim on real wall clocks instead of
// virtual time. Both runs are checked against the DES oracle's
// converged ranks at the same bound, so the speedup is only reported
// for runs that actually converged to the right answer.
func (s *Suite) figureLiveScaling() (*Figure, error) {
	in, err := s.midGraphA()
	if err != nil {
		return nil, err
	}
	cfg := *s.preset()

	oracle := func(staleness int) ([]float64, error) {
		res, err := PageRank.Async(&cfg, in, async.Options{Staleness: staleness})
		if err != nil {
			return nil, err
		}
		return res.State.([]float64), nil
	}
	desLock, err := oracle(0)
	if err != nil {
		return nil, err
	}
	desFree, err := oracle(async.Unbounded)
	if err != nil {
		return nil, err
	}

	// timedLive keeps the fastest of parallelScalingReps runs; the
	// run's own Duration is the measured wall clock, so harness overhead
	// (graph setup, rank comparison) never leaks into the figure.
	timedLive := func(staleness, workers int, want []float64) (best *async.RunStats, err error) {
		for rep := 0; rep < parallelScalingReps; rep++ {
			res, err := PageRank.Async(&cfg, in, async.Options{Staleness: staleness, Executor: async.Live, Workers: workers})
			if err != nil {
				return nil, err
			}
			if !res.Stats.Converged {
				return nil, fmt.Errorf("harness: live run (S=%d workers=%d) did not converge", staleness, workers)
			}
			if drift := stats.InfNormDiff(want, res.State.([]float64)); drift > liveScalingTol {
				return nil, fmt.Errorf("harness: live run (S=%d workers=%d) drifted %g from the DES oracle, tolerance %g",
					staleness, workers, drift, liveScalingTol)
			}
			if best == nil || res.Stats.Duration < best.Duration {
				best = res.Stats
			}
		}
		return best, nil
	}

	var speedups, lockMs, asyncMs, steals []float64
	for _, wc := range LiveWorkerCounts {
		lock, err := timedLive(0, wc, desLock)
		if err != nil {
			return nil, err
		}
		free, err := timedLive(async.Unbounded, wc, desFree)
		if err != nil {
			return nil, err
		}
		lockWall, freeWall := lock.Duration.Seconds(), free.Duration.Seconds()
		speedups = append(speedups, lockWall/freeWall)
		lockMs = append(lockMs, lockWall*1e3)
		asyncMs = append(asyncMs, freeWall*1e3)
		steals = append(steals, float64(free.LiveSteals))
		s.logf("live workers=%d: lockstep %.1fms, async %.1fms, speedup %.2fx, steals %d, compute %.1fms\n",
			wc, lockWall*1e3, freeWall*1e3, lockWall/freeWall, free.LiveSteals, free.LiveComputeTime.Seconds()*1e3)
	}
	return &Figure{
		Title: fmt.Sprintf("Live executor: measured async speedup over lockstep vs cores (Graph A, %d partitions, netScale=%g, %s)",
			len(in.Subs), cfg.LiveNetScale, cfg.Name),
		XLabel: "# Pool workers", YLabel: "Measured speedup of S=inf over S=0 (wall clock)",
		X: intsToFloats(LiveWorkerCounts),
		Series: []Series{
			{Label: "Speedup", Y: speedups}, {Label: "LockstepMs", Y: lockMs},
			{Label: "AsyncMs", Y: asyncMs}, {Label: "Steals", Y: steals},
		},
	}, nil
}
