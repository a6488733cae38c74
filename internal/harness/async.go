package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/async"
	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/kmeans"
	"repro/internal/pagerank"
	"repro/internal/simtime"
	"repro/internal/sssp"
	"repro/internal/trace"
)

// DefaultStaleness is the staleness bound S the comparison figures use
// for the async series: loose enough that workers rarely gate, tight
// enough that convergence stays close to the synchronous fixed point.
const DefaultStaleness = 4

// asyncCluster builds a fresh simulated cluster for one async run,
// mirroring Suite.engine for the MapReduce modes. A suite-level
// CrashMTTF is applied on a copy, so the shared preset stays pristine.
func (s *Suite) asyncCluster() *cluster.Cluster {
	cfg := s.Cluster
	if cfg == nil {
		cfg = cluster.EC2LargeCluster()
	}
	if s.CrashMTTF > 0 {
		c := *cfg
		c.CrashMTTF = simtime.Duration(s.CrashMTTF)
		cfg = &c
	}
	return cluster.New(cfg)
}

// clusterName names the suite's simulated platform for figure titles.
func (s *Suite) clusterName() string {
	if s.Cluster != nil {
		return s.Cluster.Name
	}
	return cluster.EC2LargeCluster().Name
}

// asyncOptions assembles the suite's async run options: staleness bound
// (or the adaptive staleness-control policy, when one is set) plus the
// executor selection (DES by default; the CLI's -parallel flag switches
// to the wall-clock-parallel executor, whose virtual-time results are
// identical) and the checkpoint policy of the crash fault model (the
// CLI's -ckpt flag).
func (s *Suite) asyncOptions(staleness int) async.Options {
	return async.Options{
		Staleness:  staleness,
		Executor:   s.AsyncExecutor,
		Workers:    s.AsyncWorkers,
		Checkpoint: s.CheckpointPolicy,
		Adapt:      s.AdaptPolicy,
	}
}

// Staleness returns the suite's async staleness bound: 0 is lockstep,
// negative unbounded.
func (s *Suite) Staleness() int { return s.AsyncStaleness }

// asyncLabel names the suite's async configuration for figure series:
// the static bound, or the adaptive policy when one is set.
func (s *Suite) asyncLabel() string {
	if s.AdaptPolicy != nil {
		return fmt.Sprintf("Async(%s)", s.AdaptPolicy)
	}
	return stalenessLabel(s.Staleness())
}

// stalenessLabel renders a staleness bound for figure series.
func stalenessLabel(s int) string {
	if s < 0 {
		return "Async(S=inf)"
	}
	return fmt.Sprintf("Async(S=%d)", s)
}

// ModeSeries is one scheduling mode's results across the partition
// sweep: the mode's label plus parallel iteration and time series. The
// async entries report mean worker steps as "iterations" — the
// per-partition analogue of a global iteration.
type ModeSeries struct {
	Label string
	Iters []float64
	Times []float64
}

// modeRunner executes PageRank once in one scheduling mode.
type modeRunner struct {
	label string
	run   func(subs []*graph.SubGraph) (iters, seconds float64, err error)
}

// modeRunners lists the scheduling modes the comparison figures sweep.
// Adding a mode (or another async executor) means appending a row here;
// sweep results are indexed by position in this slice, so no call site
// hard-codes the mode count.
func (s *Suite) modeRunners() []modeRunner {
	mapreduceMode := func(eager bool) func([]*graph.SubGraph) (float64, float64, error) {
		return func(subs []*graph.SubGraph) (float64, float64, error) {
			r, err := pagerank.Run(s.engine(), subs, pagerank.DefaultConfig(), eager)
			if err != nil {
				return 0, 0, err
			}
			return float64(r.Stats.GlobalIterations), r.Stats.Duration.Seconds(), nil
		}
	}
	return []modeRunner{
		{"General", mapreduceMode(false)},
		{"Eager", mapreduceMode(true)},
		{s.asyncLabel(), func(subs []*graph.SubGraph) (float64, float64, error) {
			r, err := pagerank.RunAsync(s.asyncCluster(), subs, pagerank.DefaultConfig(), s.asyncOptions(s.Staleness()))
			if err != nil {
				return 0, 0, err
			}
			return r.Stats.MeanSteps, r.Stats.Duration.Seconds(), nil
		}},
	}
}

// modeSweep runs PageRank in every scheduling mode across the partition
// sweep.
func (s *Suite) modeSweep(g *graph.Graph) (ks []int, modes []ModeSeries, err error) {
	ks = s.PartitionCounts()
	runners := s.modeRunners()
	modes = make([]ModeSeries, len(runners))
	for i, r := range runners {
		modes[i].Label = r.label
	}
	for _, k := range ks {
		subs, _, perr := s.partitions(g, k)
		if perr != nil {
			return nil, nil, perr
		}
		for i, r := range runners {
			iters, secs, rerr := r.run(subs)
			if rerr != nil {
				return nil, nil, rerr
			}
			modes[i].Iters = append(modes[i].Iters, iters)
			modes[i].Times = append(modes[i].Times, secs)
		}
		s.logf("pagerank k=%d:", k)
		for i, r := range runners {
			s.logf(" %s %.0fs", r.label, modes[i].Times[len(modes[i].Times)-1])
		}
		s.logf("\n")
	}
	return ks, modes, nil
}

// asyncFigurePair assembles the multi-mode iteration/time figures.
func (s *Suite) asyncFigurePair(graphName string, ks []int, modes []ModeSeries) (*Figure, *Figure) {
	x := intsToFloats(ks)
	itSeries := make([]Series, len(modes))
	tSeries := make([]Series, len(modes))
	for i, m := range modes {
		itSeries[i] = Series{Label: m.Label, Y: m.Iters}
		tSeries[i] = Series{Label: m.Label, Y: m.Times}
	}
	itFig := &Figure{
		Title:  fmt.Sprintf("Async mode: PageRank iterations vs partitions (%s)", graphName),
		XLabel: "# Partitions", YLabel: "# Iterations", X: x,
		Series: itSeries, Comparable: true,
	}
	tFig := &Figure{
		Title:  fmt.Sprintf("Async mode: PageRank time to converge vs partitions (%s)", graphName),
		XLabel: "# Partitions", YLabel: "Time (seconds)", X: x,
		Series: tSeries, Comparable: true,
	}
	return itFig, tFig
}

// FiguresAsyncA compares all scheduling modes on Graph A.
func (s *Suite) FiguresAsyncA() (*Figure, *Figure, error) {
	ks, modes, err := s.modeSweep(s.GraphA())
	if err != nil {
		return nil, nil, err
	}
	itFig, tFig := s.asyncFigurePair("Graph A", ks, modes)
	return itFig, tFig, nil
}

// FiguresAsyncB compares all scheduling modes on Graph B.
func (s *Suite) FiguresAsyncB() (*Figure, *Figure, error) {
	ks, modes, err := s.modeSweep(s.GraphB())
	if err != nil {
		return nil, nil, err
	}
	itFig, tFig := s.asyncFigurePair("Graph B", ks, modes)
	return itFig, tFig, nil
}

// StalenessValues is the staleness sweep axis; -1 renders as unbounded.
var StalenessValues = []int{0, 1, 2, 4, 8, async.Unbounded}

// StalenessSweep runs async PageRank on Graph A across the staleness
// axis at a fixed partition count — the scenario dimension the async
// mode opens: how much does tolerating stale reads buy, and when does it
// start costing extra steps? The GateWaits series shows the price of
// tight bounds; it becomes material at paper scale with cross-rack
// contention (see StalenessSweepCrossRack).
func (s *Suite) StalenessSweep() (*Figure, error) {
	g := s.GraphA()
	ks := s.PartitionCounts()
	k := ks[len(ks)/2]
	subs, _, err := s.partitions(g, k)
	if err != nil {
		return nil, err
	}
	var times, steps, waits []float64
	for _, sv := range StalenessValues {
		opt := s.asyncOptions(sv)
		// This sweep's whole point is the fixed-bound axis: a suite-level
		// adaptive policy would override sv and flatten every point into
		// the same run. FigureAdaptive is the fixed-vs-adaptive figure.
		opt.Adapt = nil
		res, err := pagerank.RunAsync(s.asyncCluster(), subs, pagerank.DefaultConfig(), opt)
		if err != nil {
			return nil, err
		}
		times = append(times, res.Stats.Duration.Seconds())
		steps = append(steps, res.Stats.MeanSteps)
		waits = append(waits, float64(res.Stats.GateWaits))
		s.logf("staleness S=%d: %.1fs, %.1f mean steps, %d gate waits\n",
			sv, res.Stats.Duration.Seconds(), res.Stats.MeanSteps, res.Stats.GateWaits)
	}
	x := make([]float64, len(StalenessValues))
	for i, sv := range StalenessValues {
		x[i] = float64(sv)
	}
	return &Figure{
		Title:  fmt.Sprintf("Staleness sweep: async PageRank on Graph A (%d partitions, %s)", k, s.clusterName()),
		XLabel: "Staleness S", YLabel: "Time (s) / mean steps / gate waits",
		X: x,
		XFmt: func(v float64) string {
			if v < 0 {
				return "inf"
			}
			return fmt.Sprintf("%.0f", v)
		},
		Series: []Series{{Label: "Time", Y: times}, {Label: "MeanSteps", Y: steps}, {Label: "GateWaits", Y: waits}},
	}, nil
}

// StalenessSweepCrossRack is the paper-scale staleness figure: the same
// sweep on a cluster whose aggregation layer is oversubscribed
// (CrossRackFraction > 0), where per-publication push traffic and gate
// waits are material instead of being drowned by the one-time job
// launch. Run it with -scale 1 to reproduce the EXPERIMENTS.md figure.
func (s *Suite) StalenessSweepCrossRack() (*Figure, error) {
	saved := s.Cluster
	s.Cluster = cluster.EC2CrossRackCluster()
	defer func() { s.Cluster = saved }()
	return s.StalenessSweep()
}

// StalenessSweepCluE runs the staleness sweep on the 460-node CluE
// cluster model (§VI): higher JobOverhead and AsyncSyncOverhead move the
// whole time axis further than the EC2 cross-rack figure, and the
// heavier per-publication cost makes tight staleness bounds pay a larger
// gate-wait toll. Run with -scale 1 to reproduce the EXPERIMENTS.md
// figure.
func (s *Suite) StalenessSweepCluE() (*Figure, error) {
	saved := s.Cluster
	s.Cluster = cluster.CluECluster()
	defer func() { s.Cluster = saved }()
	return s.StalenessSweep()
}

// ParallelWorkerCounts is the cores-scaling axis of the parallel
// executor figure.
var ParallelWorkerCounts = []int{1, 2, 4, 8}

// parallelScalingReps reruns each timed configuration and keeps the
// fastest wall-clock measurement, damping scheduler noise.
const parallelScalingReps = 3

// FigureParallelScaling measures real wall-clock time — not virtual
// time — of one async PageRank run under the sequential DES executor
// and under the parallel executor across ParallelWorkerCounts. The Y
// values are speedups over the DES baseline; virtual-time results are
// verified identical across all runs, so the figure isolates pure
// executor performance on real cores (bounded by GOMAXPROCS). The
// SpecFrac and SpecDepth series report what share of the steps a kept
// speculation satisfied and how many were in flight at the peak — the
// usable overlap, which grows with the worker count while the kept share
// falls off once the window spans most of the partitions.
func (s *Suite) FigureParallelScaling() (*Figure, error) {
	g := s.GraphA()
	ks := s.PartitionCounts()
	k := ks[len(ks)/2]
	subs, _, err := s.partitions(g, k)
	if err != nil {
		return nil, err
	}
	timed := func(opt async.Options) (wallSeconds float64, res *pagerank.AsyncResult, err error) {
		best := 0.0
		for rep := 0; rep < parallelScalingReps; rep++ {
			start := time.Now()
			res, err = pagerank.RunAsync(s.asyncCluster(), subs, pagerank.DefaultConfig(), opt)
			wall := time.Since(start).Seconds()
			if err != nil {
				return 0, nil, err
			}
			if rep == 0 || wall < best {
				best = wall
			}
		}
		return best, res, nil
	}
	desOpt := s.asyncOptions(s.Staleness())
	desOpt.Executor = async.DES
	desWall, desRes, err := timed(desOpt)
	if err != nil {
		return nil, err
	}
	var speedups, wallMs, specFrac, specDepth []float64
	for _, wc := range ParallelWorkerCounts {
		opt := desOpt
		opt.Executor = async.Parallel
		opt.Workers = wc
		wall, res, err := timed(opt)
		if err != nil {
			return nil, err
		}
		if res.Stats.Duration != desRes.Stats.Duration || res.Stats.Steps != desRes.Stats.Steps {
			return nil, fmt.Errorf("harness: parallel executor (workers=%d) diverged from DES: %v/%d vs %v/%d",
				wc, res.Stats.Duration, res.Stats.Steps, desRes.Stats.Duration, desRes.Stats.Steps)
		}
		speedups = append(speedups, desWall/wall)
		wallMs = append(wallMs, wall*1e3)
		specFrac = append(specFrac, float64(res.Stats.Speculated)/float64(res.Stats.Steps))
		specDepth = append(specDepth, float64(res.Stats.SpecDepth))
		s.logf("parallel workers=%d: %.1fms wall (DES %.1fms), speedup %.2fx, spec %.0f%% depth %d\n",
			wc, wall*1e3, desWall*1e3, desWall/wall,
			100*float64(res.Stats.Speculated)/float64(res.Stats.Steps), res.Stats.SpecDepth)
	}
	return &Figure{
		Title:  fmt.Sprintf("Parallel executor: wall-clock scaling vs DES (Graph A, %d partitions, S=%d, %s)", k, s.Staleness(), s.clusterName()),
		XLabel: "# Executor goroutines", YLabel: "Speedup over DES (wall clock)",
		X: intsToFloats(ParallelWorkerCounts),
		Series: []Series{
			{Label: "Speedup", Y: speedups}, {Label: "WallMs", Y: wallMs},
			{Label: "SpecFrac", Y: specFrac}, {Label: "SpecDepth", Y: specDepth},
		},
	}, nil
}

// FigureParallelScalingHPC is the cores-scaling figure on the HPC
// preset, where a publication is visible microseconds after the step
// that made it: more speculations read stale input and are rerun there,
// but SpecDepth stays what the pool size makes it and SpecFrac near the
// EC2 figure's level.
func (s *Suite) FigureParallelScalingHPC() (*Figure, error) {
	saved := s.Cluster
	s.Cluster = cluster.HPCCluster()
	defer func() { s.Cluster = saved }()
	return s.FigureParallelScaling()
}

// WorkloadRow is one end-to-end workload run in a chosen mode.
type WorkloadRow struct {
	Workload   string
	Mode       string
	Iterations float64 // global iterations (mean worker steps for async)
	SimSeconds float64
	Converged  bool
	// Stats carries the async runtime's full counters (nil for the
	// MapReduce modes, whose engine reports a different set).
	Stats *async.RunStats
	// Trace is the aggregated event profile when the suite recorded
	// one (Suite.TracePath set; async/live modes only).
	Trace *trace.Profile
}

// RunWorkloads executes PageRank (Graph A), SSSP (Graph A) and K-Means
// end to end in the chosen scheduling mode — the common
// iterate-until-converged entry the CLI's -mode flag drives. mode is
// "general", "eager", "async" or "live"; staleness applies to the async
// runtime only, and the async executor comes from the suite
// (Suite.AsyncExecutor) — except in live mode, which forces the live
// executor: partition compute runs for real on the work-stealing pool
// and the reported sim-seconds are measured wall-clock, not the cost
// model. In async and live modes the sweep also runs connected
// components (internal/cc), which exists only on the asynchronous
// runtime — label propagation has no MapReduce formulation here, so
// general/eager sweeps skip it.
func (s *Suite) RunWorkloads(mode string, staleness int) ([]WorkloadRow, error) {
	if mode != "general" && mode != "eager" && mode != "async" && mode != "live" {
		return nil, fmt.Errorf("harness: unknown mode %q (want general, eager, async or live)", mode)
	}
	ks := s.PartitionCounts()
	k := ks[len(ks)/2]
	g := s.GraphA()
	subs, _, err := s.partitions(g, k)
	if err != nil {
		return nil, err
	}
	opt := s.asyncOptions(staleness)
	if mode == "live" {
		opt.Executor = async.Live
	}
	var rows []WorkloadRow

	// addAsync runs one workload with a fresh per-run recorder when the
	// suite traces (Suite.TracePath), flushes the Chrome export, and
	// appends the row with its full stats and profile attached. When the
	// suite records time series (Suite.SeriesPath), an unsampled probe
	// first sizes the sampling grid from the run's duration — sampling
	// is inert, so the sampled rerun's stats are the ones reported (in
	// live mode the two runs measure different wall clocks; the sampled
	// run is the one on record).
	addAsync := func(workload string, run func(async.Options) (*async.RunStats, error)) error {
		o := opt
		rec := s.traceRecorder()
		o.Trace = rec
		if s.SeriesPath != "" || s.SeriesHook != nil {
			probe, err := run(opt)
			if err != nil {
				return err
			}
			o.Series = s.seriesFor(probe.Duration)
			if s.SeriesHook != nil {
				s.SeriesHook(workload, o.Series)
			}
		}
		st, err := run(o)
		if err != nil {
			return err
		}
		prof, err := s.flushTrace(rec, workload, mode == "live")
		if err != nil {
			return err
		}
		if err := s.flushSeries(o.Series, workload); err != nil {
			return err
		}
		rows = append(rows, WorkloadRow{workload, mode, st.MeanSteps, st.Duration.Seconds(), st.Converged, st, prof})
		return nil
	}

	switch mode {
	case "async", "live":
		if err := addAsync("pagerank", func(o async.Options) (*async.RunStats, error) {
			r, err := pagerank.RunAsync(s.asyncCluster(), subs, pagerank.DefaultConfig(), o)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}); err != nil {
			return nil, err
		}
		if err := addAsync("sssp", func(o async.Options) (*async.RunStats, error) {
			r, err := sssp.RunAsync(s.asyncCluster(), subs, sssp.Config{Source: 0}, o)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}); err != nil {
			return nil, err
		}
		if err := addAsync("cc", func(o async.Options) (*async.RunStats, error) {
			r, err := cc.RunAsync(s.asyncCluster(), subs, cc.Config{}, o)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}); err != nil {
			return nil, err
		}
		pts, err := kmeans.GenerateCensus(kmeans.DefaultCensusConfig().Scaled(s.kmeansScale()))
		if err != nil {
			return nil, err
		}
		if err := addAsync("kmeans", func(o async.Options) (*async.RunStats, error) {
			r, err := kmeans.RunAsync(s.asyncCluster(), pts, KMeansPartitions, kmeans.DefaultConfig(0.01), o)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}); err != nil {
			return nil, err
		}
	default:
		eager := mode == "eager"
		pr, err := pagerank.Run(s.engine(), subs, pagerank.DefaultConfig(), eager)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WorkloadRow{Workload: "pagerank", Mode: mode, Iterations: float64(pr.Stats.GlobalIterations), SimSeconds: pr.Stats.Duration.Seconds(), Converged: pr.Stats.Converged})
		sp, err := sssp.Run(s.engine(), subs, sssp.Config{Source: 0}, eager)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WorkloadRow{Workload: "sssp", Mode: mode, Iterations: float64(sp.Stats.GlobalIterations), SimSeconds: sp.Stats.Duration.Seconds(), Converged: sp.Stats.Converged})
		pts, err := kmeans.GenerateCensus(kmeans.DefaultCensusConfig().Scaled(s.kmeansScale()))
		if err != nil {
			return nil, err
		}
		km, err := kmeans.Run(s.engine(), pts, KMeansPartitions, kmeans.DefaultConfig(0.01), eager)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WorkloadRow{Workload: "kmeans", Mode: mode, Iterations: float64(km.Stats.GlobalIterations), SimSeconds: km.Stats.Duration.Seconds(), Converged: km.Stats.Converged})
	}
	return rows, nil
}

// RenderWorkloadRows writes the RunWorkloads result as an aligned
// table. staleness is the human spelling of the async staleness
// configuration (a bound like "4" or "unbounded", or an adaptive
// policy like "adaptive:aimd"); it only decorates async-mode titles.
func RenderWorkloadRows(w io.Writer, rows []WorkloadRow, staleness string) {
	if len(rows) == 0 {
		return
	}
	title := fmt.Sprintf("End-to-end workloads, mode=%s", rows[0].Mode)
	if rows[0].Mode == "async" || rows[0].Mode == "live" {
		title += fmt.Sprintf(" (staleness=%s)", staleness)
	}
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, "--------------------------------------------")
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "workload", "iterations", "sim-seconds", "converged")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14.1f %14.1f %10v\n", r.Workload, r.Iterations, r.SimSeconds, r.Converged)
	}
	fmt.Fprintln(w)
	// Async rows carry the runtime's full counters: render the
	// canonical full-fidelity view instead of a hand-picked subset.
	for _, r := range rows {
		if r.Stats != nil {
			fmt.Fprintf(w, "%s %s\n", r.Workload, r.Stats)
		}
	}
	// Traced rows additionally get the aggregated event profile — the
	// per-partition decomposition and blocking edges the counters
	// cannot attribute.
	for _, r := range rows {
		if r.Trace != nil {
			fmt.Fprintf(w, "%s ", r.Workload)
			r.Trace.WriteTable(w)
			fmt.Fprintln(w)
		}
	}
}
