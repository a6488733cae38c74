package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/pagerank"
	"repro/internal/recovery"
	"repro/internal/simtime"
)

// RecoveryCheckpointSteps is the checkpoint-interval axis of the
// recovery sweep: checkpoint every K worker steps; 0 means no
// checkpoints (recovery replays from the job input).
var RecoveryCheckpointSteps = []int{0, 1, 2, 4, 8, 16}

// RecoveryMTTFFractions expresses the swept worker MTTFs as fractions
// of the crash-free run duration: at 0.25 every worker expects ~4
// crashes per run (a harsh regime — with dozens of workers the cluster
// sees hundreds of crashes), at 2.5 most workers survive the run and
// fault tolerance is mostly overhead.
var RecoveryMTTFFractions = []float64{0.25, 0.75, 2.5}

// Recovery overheads in bounded PageRank steps (pagerank.BoundedStepOps,
// priced on the mean partition): a checkpoint's fixed overhead costs
// recoveryCheckpointSteps of them, a restart's recoveryRestoreSteps. A
// restart must cost less than replaying the few dozen steps a worker
// runs between crashes in the harshest regime; otherwise the number of
// restarts, not the replay they save, decides which checkpoint cadence
// recovers the slowest.
const (
	recoveryCheckpointSteps = 4
	recoveryRestoreSteps    = 8
)

// RecoveryCluster derives the recovery experiments' cost model for
// async PageRank on in from the suite's: the crash fault model prices
// steady-state operation of the long-lived asynchronous job, so the
// one-time launch — which at test scales dwarfs the stepping phase and
// absorbs most of the crash exposure with an empty journal — is shrunk
// out, and stochastic noise is disabled so the curves isolate the
// checkpoint-cadence trade-off. Checkpoint and restore overheads are
// priced in bounded steps on in, the unit replay is paid in. Crashes
// stay off (CrashMTTF 0); callers set the MTTF for their regime. The
// recovery row of TestAllocBudgets is tuned against this configuration
// — keep it on it.
func (s *Suite) RecoveryCluster(in *Inputs) *cluster.Config {
	cfg := *s.preset()
	var ops int64
	for _, sub := range in.Subs {
		ops += pagerank.BoundedStepOps(sub)
	}
	step := simtime.Duration(float64(ops) / float64(len(in.Subs)) / cfg.ComputeRate)
	cfg.JobOverhead = 200 * simtime.Millisecond
	cfg.TaskOverhead = 20 * simtime.Millisecond
	cfg.CheckpointCost = recoveryCheckpointSteps * step
	cfg.RestoreCost = recoveryRestoreSteps * step
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	return &cfg
}

// FigureRecoverySweep is the checkpoint-interval-vs-MTTF sweep of the
// worker-crash fault model (internal/recovery): async PageRank on
// Graph A, one time-to-converge curve per failure regime, across the
// checkpoint cadence. The expected shape is the classic checkpointing
// trade-off: with no checkpoints, recovery replays a worker's whole
// history and the harsh-MTTF curve blows up; with a checkpoint every
// step, replay is minimal but the run pays maximal checkpoint
// overhead. All runs use the suite's executor — DES and parallel report
// identical virtual-time results, crashes included.
func (s *Suite) FigureRecoverySweep() (*Figure, error) {
	in, err := s.midGraphA()
	if err != nil {
		return nil, err
	}
	cfg := s.RecoveryCluster(in)

	// Crash-free baseline: calibrates the MTTF fractions and anchors
	// the "what does fault tolerance cost" comparison.
	baseOpt := s.asyncOptions()
	baseOpt.Checkpoint = recovery.None()
	clean, err := PageRank.Async(cfg, in, baseOpt)
	if err != nil {
		return nil, err
	}
	cleanDur := clean.Stats.Duration
	s.logf("recovery sweep baseline (no crashes): %.2fs, %d steps\n", cleanDur.Seconds(), clean.Stats.Steps)

	series := make([]Series, 0, len(RecoveryMTTFFractions)+2)
	for fi, frac := range RecoveryMTTFFractions {
		crashy := *cfg
		crashy.CrashMTTF = simtime.Duration(float64(cleanDur) * frac)
		var times, ckptT, recT []float64
		for _, steps := range RecoveryCheckpointSteps {
			opt := baseOpt
			opt.Checkpoint = recovery.EverySteps(steps)
			res, err := PageRank.Async(&crashy, in, opt)
			if err != nil {
				return nil, err
			}
			times = append(times, res.Stats.Duration.Seconds())
			ckptT = append(ckptT, res.Stats.CheckpointTime.Seconds())
			recT = append(recT, res.Stats.RecoveryTime.Seconds())
			s.logf("recovery mttf=%.2fs ckpt=%s: %.2fs (%d crashes, %d recoveries, %d lost steps, ckpt %.2fs, rec %.2fs)\n",
				crashy.CrashMTTF.Seconds(), ckptLabel(steps), res.Stats.Duration.Seconds(),
				res.Stats.Crashes, res.Stats.Recoveries, res.Stats.LostSteps,
				res.Stats.CheckpointTime.Seconds(), res.Stats.RecoveryTime.Seconds())
		}
		series = append(series, Series{
			Label: fmt.Sprintf("Time@MTTF=%.2gx", frac),
			Y:     times,
		})
		// The trade-off's two sides, decomposed for the harshest regime:
		// total worker-time writing checkpoints falls with the interval,
		// total worker-time restoring and replaying rises with it.
		if fi == 0 {
			series = append(series,
				Series{Label: "CkptTime", Y: ckptT},
				Series{Label: "RecTime", Y: recT})
		}
	}
	return &Figure{
		Title: fmt.Sprintf("Recovery sweep: async PageRank time vs checkpoint interval (Graph A, %d partitions, S=%d, %s; crash-free %.2fs)",
			len(in.Subs), s.AsyncStaleness, cfg.Name, cleanDur.Seconds()),
		XLabel: "Checkpoint every K steps (0 = none)",
		YLabel: "Time to converge (s)",
		X:      intsToFloats(RecoveryCheckpointSteps),
		XFmt:   func(v float64) string { return ckptLabel(int(v)) },
		Series: series,
	}, nil
}

func ckptLabel(steps int) string {
	if steps <= 0 {
		return "none"
	}
	return fmt.Sprintf("%d", steps)
}
