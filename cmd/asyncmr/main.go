// Command asyncmr regenerates the paper's tables and figures
// ("Asynchronous Algorithms in MapReduce", Kambatla et al., CLUSTER
// 2010) on the simulated 8-node EC2 Hadoop testbed, and runs the
// repository's third scheduling mode — fully-asynchronous execution with
// bounded staleness (internal/async) — alongside the paper's general
// and eager formulations.
//
// Usage:
//
//	asyncmr [-scale N] [-v] [-mode M] [-staleness S] [-parallel] [-workers W]
//	        [-mttf T] [-ckpt P] [-trace F] [-series F] [-metrics-addr A]
//	        [-cpuprofile F] [-memprofile F] <experiment>
//
// Experiments:
//
//	table1 table2      the paper's tables
//	figure2..figure9   the paper's figures (general vs eager)
//	scale              §VI 460-node scalability remark
//	asyncA asyncB      three-mode comparison figures (Graphs A, B)
//	staleness          async staleness sweep (new scenario axis)
//	stalenessx         the staleness sweep on the cross-rack cluster
//	                   (CrossRackFraction 0.5); at -scale 1 this is the
//	                   paper-scale figure where gate waits and push
//	                   traffic are material
//	stalenessclue      the staleness sweep on the 460-node CluE cluster
//	                   model (higher JobOverhead/AsyncSyncOverhead)
//	adaptive           fixed-vs-adaptive staleness sweep (internal/adapt)
//	                   on the cross-rack cluster: every fixed bound
//	                   against the aimd and drift per-worker controllers,
//	                   with gate-wait time and the controller trajectory
//	adaptiveclue       the same sweep on the 460-node CluE model
//	parallel           wall-clock cores-scaling figure: async PageRank
//	                   under the parallel executor at 1..8 goroutines vs
//	                   the sequential DES (identical virtual-time results)
//	parallelhpc        the same figure on the HPC preset, whose
//	                   microsecond publish latency makes the executor's
//	                   speculations stale most often
//	livescaling        live-executor figure: async PageRank computed for
//	                   real on the work-stealing pool at 1/2/4 workers,
//	                   measured wall-clock speedup of free-running (S=inf)
//	                   over lockstep (S=0), each run checked against the
//	                   DES oracle's converged ranks
//	recovery           checkpoint-interval-vs-MTTF sweep of the worker-
//	                   crash fault model (internal/recovery): time to
//	                   converge across checkpoint cadences under several
//	                   failure regimes, with the checkpoint-write vs
//	                   recovery-replay decomposition
//	convergence        convergence-telemetry experiment: async PageRank
//	                   sampled on a fixed grid (internal/metrics) under
//	                   the S=0 lockstep baseline, the suite's async
//	                   configuration on DES and parallel (series files
//	                   byte-identical, checked), and the live executor,
//	                   reporting each leg's time to the synchronous
//	                   baseline's final residual
//	trace              event-tracing experiment: async PageRank under
//	                   all three executors with the recorder attached,
//	                   printing each run's aggregated profile (compute /
//	                   gate-wait / stall decomposition, top blocking
//	                   edges) and re-checking on DES that tracing is
//	                   inert (identical stats with the recorder on)
//	run                run PageRank, SSSP, connected components and
//	                   K-Means end to end in the mode selected by
//	                   -mode/-staleness (cc is async-only: label
//	                   propagation has no MapReduce formulation here).
//	                   -mode live runs them on the live executor: real
//	                   partition compute on the work-stealing pool, with
//	                   measured wall-clock durations instead of the cost
//	                   model's virtual time
//	all                everything above except run
//
// -staleness takes a fixed bound ("4"; "inf" or any negative value =
// unbounded free-running) or an adaptive staleness-control policy:
// "adaptive:aimd[:START[:MAX[:STALL]]]" (additive raise on gate waits,
// multiplicative cut on progress stalls) or "adaptive:drift[:CAP]"
// (ASAP-style accumulated-drift budget). Policies re-schedule each
// worker's bound during the run; results stay deterministic and
// executor-independent.
//
// -parallel runs every async-mode experiment on the wall-clock-parallel
// executor (-workers caps its goroutines); simulated results are
// identical to the default sequential DES, only real elapsed time
// changes.
//
// -mttf enables the worker-crash fault model for async runs: each
// worker crashes as a Poisson process with the given mean time to
// failure in simulated seconds, losing its in-memory state and
// recovering by checkpoint restore + deterministic replay. -ckpt picks
// the checkpoint policy: none (default), steps:K (every K steps) or
// interval:SECONDS (virtual time). Both apply to `run` and the async
// figures; the `recovery` experiment sweeps them itself.
//
// -trace records a structured event trace of each async/live workload
// in `run` (internal/trace; tracing is inert — results are
// bit-identical with it on) and writes one Chrome trace-event file per
// workload, splicing the workload name before the extension
// ("out.json" -> "out.pagerank.json"); load them in chrome://tracing
// or Perfetto. The aggregated profile (per-partition compute /
// gate-wait / stall decomposition and top blocking edges) is printed
// with the run table.
//
// -series records a deterministic time series of each async/live
// workload in `run` (internal/metrics; sampling is inert — results are
// bit-identical with it on) and writes one series file per workload,
// splicing the workload name before the extension ("out.csv" ->
// "out.pagerank.csv"; a .csv extension selects the CSV writer, anything
// else JSON). Each workload first runs an unsampled probe to size the
// sampling grid from its duration.
//
// -metrics-addr serves the sampled series over HTTP while `run`
// executes: GET /metrics is a Prometheus text-format snapshot of the
// latest sample, GET /series.json the full series so far (the workload
// currently running; each workload swaps its sampler in as it starts).
// After the experiment the process lingers and keeps serving until
// interrupted, so the final series stays scrapeable. Implies sampling
// even without -series (no files are written then).
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiment, so the runtime's hot paths can be profiled on full-size
// workloads outside `go test -bench`.
//
// With -scale 1 the workloads match the paper's sizes (280K/100K-node
// graphs, 200K census points); the default scale 8 runs the whole suite
// in under a couple of minutes with the same qualitative shapes.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/async"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/recovery"
)

func main() {
	scale := flag.Int("scale", 8, "workload scale divisor; 1 = paper-size inputs")
	verbose := flag.Bool("v", false, "print per-run progress")
	mode := flag.String("mode", "general", "scheduling mode for 'run': general, eager, async or live")
	staleness := flag.String("staleness", strconv.Itoa(harness.DefaultStaleness),
		"staleness for async mode: a fixed bound S (negative or inf = unbounded), or adaptive:aimd[:START[:MAX[:STALL]]] / adaptive:drift[:CAP] for per-worker adaptive control")
	parallel := flag.Bool("parallel", false,
		"execute async runs on the wall-clock-parallel executor (identical simulated results)")
	workers := flag.Int("workers", 0,
		"goroutine cap for the parallel executor; 0 = GOMAXPROCS")
	mttf := flag.Float64("mttf", 0,
		"worker-crash mean time to failure in simulated seconds for async runs; 0 disables crashes")
	ckpt := flag.String("ckpt", "none",
		"worker checkpoint policy for async runs: none, steps:K or interval:SECONDS")
	traceOut := flag.String("trace", "",
		"record an event trace of each async/live workload in 'run' and write Chrome trace-event files at this path (workload name spliced before the extension)")
	seriesOut := flag.String("series", "",
		"record a deterministic time series of each async/live workload in 'run' and write one series file per workload at this path (workload name spliced before the extension; .csv = CSV, else JSON)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the sampled series over HTTP at this address during 'run' (/metrics Prometheus text, /series.json full series) and linger after the experiment; implies sampling")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the experiment) to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asyncmr [-scale N] [-v] [-mode M] [-staleness S] [-parallel] [-workers W] [-mttf T] [-ckpt P] [-trace F] [-series F] [-metrics-addr A] [-cpuprofile F] [-memprofile F] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 table2 figure2 figure3 figure4 figure5 figure6 figure7 figure8 figure9 scale asyncA asyncB staleness stalenessx stalenessclue adaptive adaptiveclue parallel parallelhpc livescaling recovery trace convergence run all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	s := harness.NewSuite(*scale)
	s.Quiet = !*verbose
	s.Out = os.Stderr
	sv, spol, serr := adapt.ParseStaleness(*staleness)
	if serr != nil {
		fmt.Fprintf(os.Stderr, "asyncmr: %v\n", serr)
		os.Exit(2)
	}
	if sv < 0 {
		sv = async.Unbounded
	}
	s.AsyncStaleness = sv
	s.AdaptPolicy = spol
	if *parallel {
		s.AsyncExecutor = async.Parallel
	}
	s.AsyncWorkers = *workers
	s.CrashMTTF = *mttf
	pol, perr := recovery.ParsePolicy(*ckpt)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "asyncmr: %v\n", perr)
		os.Exit(2)
	}
	s.CheckpointPolicy = pol
	s.TracePath = *traceOut
	s.SeriesPath = *seriesOut

	// -metrics-addr serves whichever workload is currently sampling:
	// each sampler is swapped in as its run starts, and metrics.Series
	// is safe for concurrent reads, so scrapes observe the live run.
	var liveSeries atomic.Pointer[metrics.Series]
	if *metricsAddr != "" {
		s.SeriesHook = func(workload string, ser *metrics.Series) {
			liveSeries.Store(ser)
		}
		ln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "asyncmr: metrics-addr: %v\n", lerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "asyncmr: serving metrics on http://%s/metrics\n", ln.Addr())
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
				ser := liveSeries.Load()
				if ser == nil {
					http.Error(w, "no series sampled yet", http.StatusServiceUnavailable)
					return
				}
				metrics.Handler(ser).ServeHTTP(w, r)
			})
			if serr := http.Serve(ln, mux); serr != nil {
				fmt.Fprintf(os.Stderr, "asyncmr: metrics server: %v\n", serr)
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asyncmr: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "asyncmr: %v\n", err)
			os.Exit(1)
		}
	}
	err := run(s, flag.Arg(0), *mode)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	var memErr error
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr == nil {
			runtime.GC() // settle the heap so the profile shows live data
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil {
			memErr = merr
			fmt.Fprintf(os.Stderr, "asyncmr: memprofile: %v\n", merr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "asyncmr: %v\n", err)
	}
	if err != nil || memErr != nil {
		os.Exit(1)
	}
	if *metricsAddr != "" {
		// Keep the final series scrapeable until the user interrupts —
		// a short-lived experiment would otherwise race its scraper.
		fmt.Fprintf(os.Stderr, "asyncmr: experiment done; metrics endpoint stays up (interrupt to exit)\n")
		select {}
	}
}

func run(s *harness.Suite, what, mode string) error {
	out := os.Stdout
	renderPair := func(a, b *harness.Figure, first bool) {
		if first {
			a.Render(out)
		} else {
			b.Render(out)
		}
	}
	switch what {
	case "table1":
		s.Table1(out)
	case "table2":
		return s.Table2(out)
	case "figure2", "figure4":
		f2, f4, err := s.Figures2and4()
		if err != nil {
			return err
		}
		renderPair(f2, f4, what == "figure2")
	case "figure3", "figure5":
		f3, f5, err := s.Figures3and5()
		if err != nil {
			return err
		}
		renderPair(f3, f5, what == "figure3")
	case "figure6", "figure7":
		f6, f7, err := s.Figures6and7()
		if err != nil {
			return err
		}
		renderPair(f6, f7, what == "figure6")
	case "figure8", "figure9":
		f8, f9, err := s.Figures8and9()
		if err != nil {
			return err
		}
		renderPair(f8, f9, what == "figure8")
	case "scale":
		f, err := s.Scalability()
		if err != nil {
			return err
		}
		f.Render(out)
	case "asyncA", "asyncB":
		var itFig, tFig *harness.Figure
		var err error
		if what == "asyncA" {
			itFig, tFig, err = s.FiguresAsyncA()
		} else {
			itFig, tFig, err = s.FiguresAsyncB()
		}
		if err != nil {
			return err
		}
		itFig.Render(out)
		tFig.Render(out)
	case "staleness":
		f, err := s.StalenessSweep()
		if err != nil {
			return err
		}
		f.Render(out)
	case "stalenessx":
		f, err := s.StalenessSweepCrossRack()
		if err != nil {
			return err
		}
		f.Render(out)
	case "stalenessclue":
		f, err := s.StalenessSweepCluE()
		if err != nil {
			return err
		}
		f.Render(out)
	case "adaptive":
		f, err := s.FigureAdaptive()
		if err != nil {
			return err
		}
		f.Render(out)
	case "adaptiveclue":
		f, err := s.FigureAdaptiveCluE()
		if err != nil {
			return err
		}
		f.Render(out)
	case "parallel":
		f, err := s.FigureParallelScaling()
		if err != nil {
			return err
		}
		f.Render(out)
	case "parallelhpc":
		f, err := s.FigureParallelScalingHPC()
		if err != nil {
			return err
		}
		f.Render(out)
	case "livescaling":
		f, err := s.FigureLiveScaling()
		if err != nil {
			return err
		}
		f.Render(out)
	case "recovery":
		f, err := s.FigureRecoverySweep()
		if err != nil {
			return err
		}
		f.Render(out)
	case "trace":
		f, err := s.TraceExperiment(out)
		if err != nil {
			return err
		}
		f.Render(out)
	case "convergence":
		f, err := s.FigureConvergence(out)
		if err != nil {
			return err
		}
		f.Render(out)
	case "run":
		rows, err := s.RunWorkloads(mode, s.AsyncStaleness)
		if err != nil {
			return err
		}
		label := strconv.Itoa(s.AsyncStaleness)
		if s.AdaptPolicy != nil {
			label = s.AdaptPolicy.String()
		} else if s.AsyncStaleness < 0 {
			label = "unbounded"
		}
		harness.RenderWorkloadRows(out, rows, label)
	case "all":
		s.Table1(out)
		if err := s.Table2(out); err != nil {
			return err
		}
		f2, f4, err := s.Figures2and4()
		if err != nil {
			return err
		}
		f3, f5, err := s.Figures3and5()
		if err != nil {
			return err
		}
		f6, f7, err := s.Figures6and7()
		if err != nil {
			return err
		}
		f8, f9, err := s.Figures8and9()
		if err != nil {
			return err
		}
		for _, f := range []*harness.Figure{f2, f3, f4, f5, f6, f7, f8, f9} {
			f.Render(out)
		}
		aIt, aT, err := s.FiguresAsyncA()
		if err != nil {
			return err
		}
		bIt, bT, err := s.FiguresAsyncB()
		if err != nil {
			return err
		}
		for _, f := range []*harness.Figure{aIt, aT, bIt, bT} {
			f.Render(out)
		}
		fst, err := s.StalenessSweep()
		if err != nil {
			return err
		}
		fst.Render(out)
		fsx, err := s.StalenessSweepCrossRack()
		if err != nil {
			return err
		}
		fsx.Render(out)
		fsc, err := s.StalenessSweepCluE()
		if err != nil {
			return err
		}
		fsc.Render(out)
		fad, err := s.FigureAdaptive()
		if err != nil {
			return err
		}
		fad.Render(out)
		fac, err := s.FigureAdaptiveCluE()
		if err != nil {
			return err
		}
		fac.Render(out)
		fp, err := s.FigureParallelScaling()
		if err != nil {
			return err
		}
		fp.Render(out)
		fph, err := s.FigureParallelScalingHPC()
		if err != nil {
			return err
		}
		fph.Render(out)
		fl, err := s.FigureLiveScaling()
		if err != nil {
			return err
		}
		fl.Render(out)
		fr, err := s.FigureRecoverySweep()
		if err != nil {
			return err
		}
		fr.Render(out)
		ftr, err := s.TraceExperiment(out)
		if err != nil {
			return err
		}
		ftr.Render(out)
		fcv, err := s.FigureConvergence(out)
		if err != nil {
			return err
		}
		fcv.Render(out)
		fs, err := s.Scalability()
		if err != nil {
			return err
		}
		fs.Render(out)
	default:
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}
