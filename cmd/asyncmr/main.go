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
//	        [-mttf T] [-ckpt P] [-trace F] [-series F]
//	        [-cpuprofile F] [-memprofile F] <experiment>
//
// asyncmr -h lists the experiments, one line each, from the registry in
// internal/harness; `all` runs every one of them except `run`. A flag
// the chosen experiment would ignore is refused (exit 2) rather than
// accepted: -mode, -trace and -series belong to `run`, and each
// registry entry says which of -staleness, -parallel, -workers, -mttf
// and -ckpt it reads.
//
// -staleness takes the one global bound S the paper fixes up front: an
// integer ("4"), or "inf" or any negative value for unbounded
// free-running.
//
// -parallel runs async-mode experiments on the wall-clock-parallel
// executor; simulated results are identical to the default sequential
// DES, only real elapsed time changes. -workers caps the goroutine pool
// of the parallel executor and of the live one (-mode live).
//
// -mttf enables the worker-crash fault model for async runs: each
// worker crashes as a Poisson process with the given mean time to
// failure in simulated seconds, losing its in-memory state and
// recovering by checkpoint restore + deterministic replay. -ckpt picks
// the checkpoint policy: none (default) or steps:K (every K steps; a
// bare K means the same). Both apply to `run` and the async figures;
// the `recovery` experiment sweeps them itself.
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
// bit-identical with it on) and writes one CSV file per workload,
// splicing the workload name before the extension ("out.csv" ->
// "out.pagerank.csv"); a path without the .csv extension is refused.
// Each workload first runs an unsampled probe to size the sampling grid
// from its duration.
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
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/async"
	"repro/internal/harness"
	"repro/internal/recovery"
)

func main() {
	scale := flag.Int("scale", 8, "workload scale divisor; 1 = paper-size inputs")
	verbose := flag.Bool("v", false, "print per-run progress")
	mode := flag.String("mode", "general", "scheduling mode for 'run': general, eager, async or live")
	staleness := flag.String("staleness", strconv.Itoa(harness.DefaultStaleness),
		"staleness bound S for async mode: an integer, or inf or any negative value for unbounded")
	parallel := flag.Bool("parallel", false,
		"execute async runs on the wall-clock-parallel executor (identical simulated results)")
	workers := flag.Int("workers", 0,
		"goroutine cap for the parallel executor's and the live executor's pool; 0 = GOMAXPROCS")
	mttf := flag.Float64("mttf", 0,
		"worker-crash mean time to failure in simulated seconds for async runs; 0 disables crashes")
	ckpt := flag.String("ckpt", "none",
		"worker checkpoint policy for async runs: none or steps:K")
	traceOut := flag.String("trace", "",
		"record an event trace of each async/live workload in 'run' and write Chrome trace-event files at this path (workload name spliced before the extension)")
	seriesOut := flag.String("series", "",
		"record a deterministic time series of each async/live workload in 'run' and write one series file per workload at this path (a .csv path; workload name spliced before the extension)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the experiment) to this file")
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, usage())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := cmp.Or(refuseIgnored(flag.Arg(0), *mode, set), refuseBadValues(*scale, *workers, *mttf, *seriesOut)); err != nil {
		fmt.Fprintf(os.Stderr, "asyncmr: %v\n", err)
		os.Exit(2)
	}

	s := harness.NewSuite(*scale)
	if *verbose {
		s.Out = os.Stderr
	}
	sv, serr := parseStaleness(*staleness)
	if serr != nil {
		fmt.Fprintf(os.Stderr, "asyncmr: %v\n", serr)
		os.Exit(2)
	}
	s.AsyncStaleness = sv
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

	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asyncmr: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "asyncmr: %v\n", err)
			os.Exit(1)
		}
	}
	err := run(s, flag.Arg(0), *mode, os.Stdout)
	var profErr error
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil {
			profErr = cerr
			fmt.Fprintf(os.Stderr, "asyncmr: cpuprofile: %v\n", cerr)
		}
	}
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
			profErr = merr
			fmt.Fprintf(os.Stderr, "asyncmr: memprofile: %v\n", merr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "asyncmr: %v\n", err)
	}
	if err != nil || profErr != nil {
		os.Exit(1)
	}
}

// usage is the help text's head: the synopsis and the registry, one
// line per experiment.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: asyncmr [-scale N] [-v] [-mode M] [-staleness S] [-parallel] [-workers W] [-mttf T] [-ckpt P] [-trace F] [-series F] [-cpuprofile F] [-memprofile F] <experiment>\nexperiments:\n")
	var standalone []string
	for _, e := range harness.Experiments() {
		fmt.Fprintf(&b, "  %-16s %s", strings.Join(e.Names, " "), e.Help)
		if len(e.Flags) > 0 {
			fmt.Fprintf(&b, " [reads -%s]", strings.Join(e.Flags, " -"))
		}
		b.WriteString("\n")
		if e.Standalone {
			standalone = append(standalone, e.Names...)
		}
	}
	fmt.Fprintf(&b, "  %-16s every experiment above except %s\n", "all", strings.Join(standalone, " "))
	return b.String()
}

// selected returns the registry entries `what` runs: one, or for "all"
// every entry not marked standalone.
func selected(what string) []*harness.Experiment {
	if what != "all" {
		if e, _ := harness.Lookup(what); e != nil {
			return []*harness.Experiment{e}
		}
		return nil
	}
	var es []*harness.Experiment
	for _, e := range harness.Experiments() {
		if !e.Standalone {
			es = append(es, e)
		}
	}
	return es
}

// refuseIgnored returns an error naming the first set flag that every
// experiment `what` selects would accept and then ignore.
func refuseIgnored(what, mode string, set []string) error {
	es := selected(what)
	ignoredBy := map[string]int{}
	for _, e := range es {
		for _, f := range e.Ignored(mode, set) {
			ignoredBy[f]++
		}
	}
	for _, f := range harness.ExperimentFlags {
		if ignoredBy[f] > 0 && ignoredBy[f] == len(es) {
			if f != "mode" && len(es) == 1 && slices.Contains(es[0].Flags, "mode") {
				what += " in -mode " + mode
			}
			return fmt.Errorf("-%s has no effect on %s; asyncmr -h lists what each experiment reads", f, what)
		}
	}
	return nil
}

// refuseBadValues names a flag whose value would be replaced without a
// word: harness.NewSuite reads a -scale below 1 as 1, paper-size inputs
// that take minutes where -scale 8 takes seconds, the executors read
// a negative -workers as GOMAXPROCS, and the harness reads a negative
// -mttf as no crashes; a NaN -mttf is no mean at all. A -series path
// must end in .csv, the one format the series is written in, so no run
// starts only to write CSV under another name.
func refuseBadValues(scale, workers int, mttf float64, series string) error {
	switch {
	case scale < 1:
		return fmt.Errorf("-scale %d: the divisor is 1 (paper-size inputs) or more", scale)
	case workers < 0:
		return fmt.Errorf("-workers %d: the cap is 0 (GOMAXPROCS) or more", workers)
	case !(mttf >= 0):
		return fmt.Errorf("-mttf %g: the mean is 0 (no crashes) or more", mttf)
	case series != "" && filepath.Ext(series) != ".csv":
		return fmt.Errorf("-series %s: the series is written as CSV; name a .csv file", series)
	}
	return nil
}

// parseStaleness reads -staleness: an integer bound, or "inf" or any
// negative value for unbounded (async.Unbounded).
func parseStaleness(v string) (int, error) {
	v = strings.TrimSpace(v)
	if v == "inf" {
		return async.Unbounded, nil
	}
	s, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("-staleness %q: the bound is an integer S, or inf or a negative value for unbounded", v)
	}
	return max(s, async.Unbounded), nil
}

// run executes the selected experiments in registry order: each prints
// what is not a figure itself, then its figures are rendered — all of
// them, or the one `what` names in a multi-figure entry.
func run(s *harness.Suite, what, mode string, out io.Writer) error {
	es := selected(what)
	if es == nil {
		return fmt.Errorf("unknown experiment %q", what)
	}
	_, pick := harness.Lookup(what)
	for _, e := range es {
		figs, err := e.Run(s, mode, out)
		if err != nil {
			return err
		}
		if what != "all" && len(e.Names) > 1 {
			figs = figs[pick : pick+1]
		}
		for _, f := range figs {
			f.Render(out)
		}
	}
	return nil
}
