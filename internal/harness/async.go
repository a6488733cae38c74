package harness

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// DefaultStaleness is the staleness bound S the comparison figures use
// for the async series: loose enough that workers rarely gate, tight
// enough that convergence stays close to the synchronous fixed point.
const DefaultStaleness = 4

// withCrashes applies the suite-level CrashMTTF to a preset, on a copy,
// so the shared preset stays pristine.
func (s *Suite) withCrashes(preset *cluster.Config) *cluster.Config {
	if s.CrashMTTF <= 0 {
		return preset
	}
	c := *preset
	c.CrashMTTF = simtime.Duration(s.CrashMTTF)
	return &c
}

// asyncOptions assembles the suite's async run options: staleness bound,
// executor and pool size (-parallel, -workers) and the checkpoint policy
// of the crash fault model (-ckpt).
func (s *Suite) asyncOptions() async.Options {
	return async.Options{
		Staleness:  s.AsyncStaleness,
		Executor:   s.AsyncExecutor,
		Workers:    s.AsyncWorkers,
		Checkpoint: s.CheckpointPolicy,
	}
}

// fixedBound is asyncOptions at the static bound sv, for the sweeps whose
// axis is the bound.
func (s *Suite) fixedBound(sv int) async.Options {
	opt := s.asyncOptions()
	opt.Staleness = sv
	return opt
}

// asyncLabel names the suite's async configuration for figure series.
func (s *Suite) asyncLabel() string { return "Async(S=" + boundName(s.AsyncStaleness) + ")" }

// boundName spells a staleness bound; negative is unbounded.
func boundName(sv int) string {
	if sv < 0 {
		return "inf"
	}
	return strconv.Itoa(sv)
}

// StalenessValues is the staleness sweep axis; -1 renders as unbounded.
var StalenessValues = []int{0, 1, 2, 4, 8, async.Unbounded}

// StalenessSweep runs async PageRank on Graph A across the staleness
// axis at a fixed partition count, on the given cluster preset — the
// scenario dimension the async mode opens: how much does tolerating
// stale reads buy, and when does it start costing extra steps? The
// GateWaits series shows the price of tight bounds; it becomes material
// at paper scale (-scale 1) on a preset whose aggregation layer is
// oversubscribed (EC2CrossRackCluster) or whose JobOverhead and
// AsyncSyncOverhead are higher (CluECluster), where per-publication push
// traffic and gate waits are no longer drowned by the one-time job
// launch.
func (s *Suite) StalenessSweep(preset *cluster.Config) (*Figure, error) {
	in, err := s.midGraphA()
	if err != nil {
		return nil, err
	}
	var times, steps, waits []float64
	for _, sv := range StalenessValues {
		r, err := PageRank.Async(s.withCrashes(preset), in, s.fixedBound(sv))
		if err != nil {
			return nil, err
		}
		times = append(times, r.SimSeconds)
		steps = append(steps, r.Stats.MeanSteps)
		waits = append(waits, float64(r.Stats.GateWaits))
		s.logf("staleness S=%d: %.1fs, %.1f mean steps, %d gate waits\n",
			sv, r.SimSeconds, r.Stats.MeanSteps, r.Stats.GateWaits)
	}
	return &Figure{
		Title:  fmt.Sprintf("Staleness sweep: async PageRank on Graph A (%d partitions, %s)", len(in.Subs), preset.Name),
		XLabel: "Staleness S", YLabel: "Time (s) / mean steps / gate waits",
		X:      intsToFloats(StalenessValues),
		XFmt:   func(v float64) string { return boundName(int(v)) },
		Series: []Series{{Label: "Time", Y: times}, {Label: "MeanSteps", Y: steps}, {Label: "GateWaits", Y: waits}},
	}, nil
}

// ParallelWorkerCounts is the cores-scaling axis of the parallel
// executor figure.
var ParallelWorkerCounts = []int{1, 2, 4, 8}

// parallelScalingReps reruns each timed configuration and keeps the
// fastest wall-clock measurement, damping scheduler noise.
const parallelScalingReps = 3

// FigureParallelScaling measures real wall-clock time — not virtual
// time — of one async PageRank run under the sequential DES executor
// and under the parallel executor across ParallelWorkerCounts, on the
// given cluster preset. The Y values are speedups over the DES
// baseline; virtual-time results are verified identical across all
// runs, so the figure isolates pure executor performance on real cores
// (bounded by GOMAXPROCS). The SpecFrac and SpecDepth series report what
// share of the steps a kept speculation satisfied and how many were in
// flight at the peak — the usable overlap, which grows with the worker
// count while the kept share falls off once the window spans most of
// the partitions. On the HPC preset a publication is visible
// microseconds after the step that made it: more speculations read
// stale input and are rerun there, but SpecDepth stays what the pool
// size makes it and SpecFrac near the EC2 figure's level.
func (s *Suite) FigureParallelScaling(preset *cluster.Config) (*Figure, error) {
	in, err := s.midGraphA()
	if err != nil {
		return nil, err
	}
	timed := func(opt async.Options) (wallSeconds float64, st *async.RunStats, err error) {
		for rep := 0; rep < parallelScalingReps; rep++ {
			start := time.Now()
			r, err := PageRank.Async(s.withCrashes(preset), in, opt)
			wall := time.Since(start).Seconds()
			if err != nil {
				return 0, nil, err
			}
			if rep == 0 || wall < wallSeconds {
				wallSeconds = wall
			}
			st = r.Stats
		}
		return wallSeconds, st, nil
	}
	desOpt := s.asyncOptions()
	desOpt.Executor = async.DES
	desWall, des, err := timed(desOpt)
	if err != nil {
		return nil, err
	}
	var speedups, wallMs, specFrac, specDepth []float64
	for _, wc := range ParallelWorkerCounts {
		opt := desOpt
		opt.Executor = async.Parallel
		opt.Workers = wc
		wall, st, err := timed(opt)
		if err != nil {
			return nil, err
		}
		if st.Duration != des.Duration || st.Steps != des.Steps {
			return nil, fmt.Errorf("harness: parallel executor (workers=%d) diverged from DES: %v/%d vs %v/%d",
				wc, st.Duration, st.Steps, des.Duration, des.Steps)
		}
		speedups = append(speedups, desWall/wall)
		wallMs = append(wallMs, wall*1e3)
		specFrac = append(specFrac, float64(st.Speculated)/float64(st.Steps))
		specDepth = append(specDepth, float64(st.SpecDepth))
		s.logf("parallel workers=%d: %.1fms wall (DES %.1fms), speedup %.2fx, spec %.0f%% depth %d\n",
			wc, wall*1e3, desWall*1e3, desWall/wall, 100*float64(st.Speculated)/float64(st.Steps), st.SpecDepth)
	}
	return &Figure{
		Title:  fmt.Sprintf("Parallel executor: wall-clock scaling vs DES (Graph A, %d partitions, S=%d, %s)", len(in.Subs), s.AsyncStaleness, preset.Name),
		XLabel: "# Executor goroutines", YLabel: "Speedup over DES (wall clock)",
		X: intsToFloats(ParallelWorkerCounts),
		Series: []Series{
			{Label: "Speedup", Y: speedups}, {Label: "WallMs", Y: wallMs},
			{Label: "SpecFrac", Y: specFrac}, {Label: "SpecDepth", Y: specDepth},
		},
	}, nil
}

// WorkloadRow is one end-to-end workload run in a chosen mode.
type WorkloadRow struct {
	Workload string
	Mode     string
	Run
	// Trace is the aggregated event profile when the suite recorded
	// one (Suite.TracePath set; async/live modes only).
	Trace *trace.Profile
}

// RunWorkloads executes every row of the workload table end to end in
// the chosen scheduling mode — the common iterate-until-converged entry
// the CLI's -mode flag drives. mode is "general", "eager", "async" or
// "live"; staleness applies to the async runtime only, and the async
// executor comes from the suite (Suite.AsyncExecutor) — except in live
// mode, which forces the live executor: partition compute runs for real
// on the work-stealing pool and the reported sim-seconds are measured
// wall-clock, not the cost model. General and eager sweeps skip the
// rows that have no MapReduce formulation (connected components). Each
// row builds its own inputs, so the three graph rows each generate and
// partition Graph A: set-up is a few percent of a run and is not priced.
func (s *Suite) RunWorkloads(mode string, staleness int) ([]WorkloadRow, error) {
	if mode != "general" && mode != "eager" && mode != "async" && mode != "live" {
		return nil, fmt.Errorf("harness: unknown mode %q (want general, eager, async or live)", mode)
	}
	onAsync := mode == "async" || mode == "live"
	opt := s.asyncOptions()
	opt.Staleness = staleness
	if mode == "live" {
		opt.Executor = async.Live
	}
	var rows []WorkloadRow
	for _, w := range Workloads {
		if !onAsync && !w.HasSync() {
			continue
		}
		in, err := w.Inputs(s)
		if err != nil {
			return nil, err
		}
		row := WorkloadRow{Workload: w.Name, Mode: mode}
		if onAsync {
			row.Run, row.Trace, err = s.recorded(w, in, opt, mode == "live")
		} else {
			row.Run, err = w.Sync(s.preset(), in, mode == "eager")
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// recorded runs one workload on the async runtime with a fresh per-run
// recorder when the suite traces (Suite.TracePath), flushes the Chrome
// export, and returns the run with its profile. When the suite records
// time series (Suite.SeriesPath or SeriesHook), an unsampled probe first
// sizes the sampling grid from the run's duration — sampling is inert,
// so the sampled rerun's stats are the ones reported (in live mode the
// two runs measure different wall clocks; the sampled run is the one on
// record).
func (s *Suite) recorded(w *Workload, in *Inputs, opt async.Options, live bool) (Run, *trace.Profile, error) {
	preset := s.withCrashes(s.preset())
	o := opt
	if s.TracePath != "" { // nil keeps the runtime's one-branch fast path
		o.Trace = trace.NewRecorder(trace.DefaultCapacity)
	}
	if s.SeriesPath != "" || s.SeriesHook != nil {
		probe, err := w.Async(preset, in, opt)
		if err != nil {
			return Run{}, nil, err
		}
		o.Series = metrics.NewSeries(probe.Stats.Duration/seriesPoints, 0)
		if s.SeriesHook != nil {
			s.SeriesHook(w.Name, o.Series)
		}
	}
	r, err := w.Async(preset, in, o)
	if err != nil {
		return Run{}, nil, err
	}
	prof, err := s.flushTrace(o.Trace, w.Name, live)
	if err != nil {
		return Run{}, nil, err
	}
	return r, prof, s.flushSeries(o.Series, w.Name)
}

// stalenessSpelling is the human spelling of the suite's async staleness
// bound: "4" or "unbounded".
func (s *Suite) stalenessSpelling() string {
	if s.AsyncStaleness < 0 {
		return "unbounded"
	}
	return strconv.Itoa(s.AsyncStaleness)
}

// RenderWorkloadRows writes the RunWorkloads result as an aligned
// table. staleness is the human spelling of the async staleness bound
// ("4" or "unbounded"); it only decorates async-mode titles.
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
