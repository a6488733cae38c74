package harness

import (
	"fmt"
	"strings"

	"repro/internal/adapt"
	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/stats"
)

// AdaptivePolicies is the adaptive half of the fixed-vs-adaptive sweep:
// both controller families at their default parameters. The fixed half
// is StalenessValues, the staleness figures' axis, so the two families of
// figures stay point-for-point comparable.
func AdaptivePolicies() []adapt.Policy {
	return []adapt.Policy{adapt.AIMDDefault(), adapt.DriftDefault()}
}

// AdaptiveSweepLabels names the sweep's entries, fixed bounds first; an
// adaptive entry is named by its policy family, the spelling's prefix.
func AdaptiveSweepLabels() []string {
	labels := make([]string, 0, len(StalenessValues)+2)
	for _, sv := range StalenessValues {
		labels = append(labels, "S="+boundName(sv))
	}
	for _, pol := range AdaptivePolicies() {
		family, _, _ := strings.Cut(pol.String(), ":")
		labels = append(labels, family)
	}
	return labels
}

// AdaptiveSweepRow is one entry of the fixed-vs-adaptive sweep.
type AdaptiveSweepRow struct {
	Label string
	Stats *async.RunStats
	// RankDrift is the largest per-node rank deviation from the sweep's
	// lockstep (S=0) run — the converged-quality check: adapting the
	// bound must move the schedule, not the fixed point.
	RankDrift float64
}

// AdaptiveSweep runs async PageRank on Graph A across every fixed bound
// in StalenessValues and every adaptive policy, on the given cost
// model: the fixed-vs-adaptive comparison behind FigureAdaptive. The
// interesting read is GateWaitTime (what the controller tries to
// shrink) against MeanSteps (the stale-extra-step price) and
// StalenessMean/Max (the controller's trajectory).
func (s *Suite) AdaptiveSweep(preset *cluster.Config) ([]AdaptiveSweepRow, error) {
	in, err := s.midGraphA()
	if err != nil {
		return nil, err
	}
	labels := AdaptiveSweepLabels()
	rows := make([]AdaptiveSweepRow, 0, len(labels))
	var baseline []float64 // the lockstep run's ranks
	sweep := func(opt async.Options) error {
		label := labels[len(rows)]
		res, err := PageRank.Async(s.withCrashes(preset), in, opt)
		if err != nil {
			return fmt.Errorf("harness: adaptive sweep %s: %w", label, err)
		}
		ranks := res.State.([]float64)
		if baseline == nil {
			baseline = ranks
		}
		rows = append(rows, AdaptiveSweepRow{Label: label, Stats: res.Stats, RankDrift: stats.InfNormDiff(ranks, baseline)})
		return nil
	}
	for _, sv := range StalenessValues {
		if err := sweep(s.fixedBound(sv)); err != nil {
			return nil, err
		}
	}
	for _, pol := range AdaptivePolicies() {
		opt := s.asyncOptions()
		opt.Adapt = pol
		if err := sweep(opt); err != nil {
			return nil, err
		}
	}
	for _, r := range rows {
		s.logf("adaptive %-6s: %.1fs, gate-wait %.1fs (%d waits), %.1f mean steps, S mean %.2f max %d, raises/cuts %d/%d, rank drift %.2g\n",
			r.Label, r.Stats.Duration.Seconds(), r.Stats.GateWaitTime.Seconds(), r.Stats.GateWaits,
			r.Stats.MeanSteps, r.Stats.StalenessMean, r.Stats.StalenessMax,
			r.Stats.AdaptRaises, r.Stats.AdaptCuts, r.RankDrift)
	}
	return rows, nil
}

// FigureAdaptive renders the fixed-vs-adaptive staleness sweep on one
// cost model. The registry runs it on the EC2 cross-rack cluster — where
// gate waits and push traffic are material, so a controller that spends
// the asynchrony budget per worker has something to win — and on the
// 460-node CluE model, whose heavier per-publication cost raises the
// stakes on both sides of the trade. Run with -scale 1 to reproduce the
// EXPERIMENTS.md figures.
func (s *Suite) FigureAdaptive(preset *cluster.Config) (*Figure, error) {
	rows, err := s.AdaptiveSweep(preset)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(rows))
	var times, waits, steps, smean []float64
	for i, r := range rows {
		x[i] = float64(i)
		times = append(times, r.Stats.Duration.Seconds())
		waits = append(waits, r.Stats.GateWaitTime.Seconds())
		steps = append(steps, r.Stats.MeanSteps)
		smean = append(smean, r.Stats.StalenessMean)
	}
	labels := AdaptiveSweepLabels()
	return &Figure{
		Title: fmt.Sprintf("Adaptive staleness: fixed bounds vs per-worker controllers (async PageRank, Graph A, %d partitions, %s)",
			s.midK(), preset.Name),
		XLabel: "Staleness policy",
		YLabel: "Time (s) / gate-wait time (s) / mean steps / mean S",
		X:      x,
		XFmt: func(v float64) string {
			i := int(v)
			if i < 0 || i >= len(labels) {
				return "?"
			}
			return labels[i]
		},
		Series: []Series{
			{Label: "Time", Y: times},
			{Label: "GateWaitS", Y: waits},
			{Label: "MeanSteps", Y: steps},
			{Label: "MeanS", Y: smean},
		},
	}, nil
}
