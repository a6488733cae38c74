package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/async"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// seriesPoints is how many interior sampler ticks the harness aims for
// when it sizes a sampling grid from a probe run's duration.
const seriesPoints = 48

// convergencePoints is the (coarser) grid of the convergence figure:
// enough resolution to see the residual knee, few enough rows to render
// as a table.
const convergencePoints = 32

// flushSeries writes one workload's recorded series as CSV. A nil
// series (recording off) or empty SeriesPath (hook-only sampling, no
// files) is a no-op.
func (s *Suite) flushSeries(ser *metrics.Series, workload string) error {
	if ser == nil || s.SeriesPath == "" {
		return nil
	}
	path := splicePath(s.SeriesPath, workload)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: series: %w", err)
	}
	werr := ser.WriteCSV(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("harness: series %s: %w", path, werr)
	}
	s.logf("series: %s: %d samples (%d dropped) -> %s\n", workload, ser.Len(), ser.Dropped(), path)
	return nil
}

// residuals extracts one series' residual curve for figure plotting.
func residuals(ser *metrics.Series) []float64 {
	smp := ser.Samples()
	out := make([]float64, len(smp))
	for i, v := range smp {
		out[i] = v.Residual
	}
	return out
}

// FigureConvergence records residual-vs-time telemetry for async
// PageRank on Graph A and compares convergence trajectories across the
// executors: a lockstep S=0 DES run (the synchronous-quality
// baseline), the suite's async configuration under DES and under the
// parallel executor — whose series files must be byte-identical, so
// the figure itself enforces sampler determinism end to end — and a
// live run on the goroutine pool, sampled on its own wall-clock
// grid. Each leg reports Series.TimeToResidual at the baseline's final
// residual: the paper's question (how fast does asynchrony reach
// synchronous quality?) read directly off the telemetry. The X axis is
// the sample tick — a uniform grid per leg (sync/async legs share the
// S=0 probe's interval; the live leg's grid is sized from a live
// probe), so ticks align across the simulated legs and the live curve
// is shape-comparable.
func (s *Suite) FigureConvergence(w io.Writer) (*Figure, error) {
	in, err := s.midGraphA()
	if err != nil {
		return nil, err
	}
	preset := s.withCrashes(s.preset())
	run := func(opt async.Options) (*async.RunStats, error) {
		r, err := PageRank.Async(preset, in, opt)
		return r.Stats, err
	}
	// The lockstep probe fixes the shared grid: S=0 is the slowest
	// simulated leg, so every other leg's run fits on its axis.
	probe, err := run(async.Options{Staleness: 0})
	if err != nil {
		return nil, err
	}
	interval := probe.Duration / convergencePoints
	sampled := func(opt async.Options, iv simtime.Duration) (*metrics.Series, *async.RunStats, error) {
		ser := metrics.NewSeries(iv, 0)
		opt.Series = ser
		st, err := run(opt)
		return ser, st, err
	}
	syncSer, syncStats, err := sampled(async.Options{Staleness: 0}, interval)
	if err != nil {
		return nil, err
	}
	asyncOpt := s.asyncOptions()
	asyncOpt.Executor = async.DES
	desSer, desStats, err := sampled(asyncOpt, interval)
	if err != nil {
		return nil, err
	}
	parOpt := asyncOpt
	parOpt.Executor = async.Parallel
	parSer, _, err := sampled(parOpt, interval)
	if err != nil {
		return nil, err
	}
	var desCSV, parCSV bytes.Buffer
	if err := desSer.WriteCSV(&desCSV); err != nil {
		return nil, err
	}
	if err := parSer.WriteCSV(&parCSV); err != nil {
		return nil, err
	}
	if !bytes.Equal(desCSV.Bytes(), parCSV.Bytes()) {
		return nil, fmt.Errorf("harness: convergence series diverged between the DES and parallel executors (%d vs %d samples)",
			desSer.Len(), parSer.Len())
	}
	// The live leg runs in measured wall time, so its grid comes from a
	// live probe, not the virtual-time one.
	liveOpt := asyncOpt
	liveOpt.Executor = async.Live
	liveProbe, err := run(liveOpt)
	if err != nil {
		return nil, err
	}
	liveSer, liveStats, err := sampled(liveOpt, liveProbe.Duration/convergencePoints)
	if err != nil {
		return nil, err
	}

	// Headline: time to reach the synchronous baseline's final quality.
	last, _ := syncSer.Last()
	threshold := last.Residual
	legs := []struct {
		name   string
		ser    *metrics.Series
		domain string
	}{
		{"Sync(S=0) DES", syncSer, "virtual"},
		{s.asyncLabel() + " DES", desSer, "virtual"},
		{s.asyncLabel() + " parallel", parSer, "virtual"},
		{s.asyncLabel() + " live", liveSer, "wall"},
	}
	for _, leg := range legs {
		at, ok := leg.ser.TimeToResidual(threshold)
		line := fmt.Sprintf("convergence %-22s residual<=%.3g: not reached (%d samples)\n", leg.name, threshold, leg.ser.Len())
		if ok {
			line = fmt.Sprintf("convergence %-22s residual<=%.3g at %.4g %s seconds (%d samples)\n",
				leg.name, threshold, at.Seconds(), leg.domain, leg.ser.Len())
		}
		if w != nil {
			fmt.Fprint(w, line)
		}
		s.logf("%s", line)
	}
	if !syncStats.Converged || !desStats.Converged || !liveStats.Converged {
		return nil, fmt.Errorf("harness: convergence legs did not all converge (sync %v, async %v, live %v)",
			syncStats.Converged, desStats.Converged, liveStats.Converged)
	}

	curves := []Series{
		{Label: "Sync(S=0)", Y: residuals(syncSer)},
		{Label: s.asyncLabel(), Y: residuals(desSer)},
		{Label: "Live", Y: residuals(liveSer)},
	}
	n := 0
	for _, c := range curves {
		if len(c.Y) > n {
			n = len(c.Y)
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	return &Figure{
		Title: fmt.Sprintf("Convergence telemetry: PageRank residual per sampling tick (Graph A, %d partitions, %s; parallel byte-identical to DES)",
			len(in.Subs), preset.Name),
		XLabel: "Sample tick (uniform per-leg grid)", YLabel: "Residual (max partition delta)",
		X:      x,
		Series: curves,
	}, nil
}
