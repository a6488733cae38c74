// Command tracecheck validates Chrome trace-event files emitted by
// `asyncmr -trace` (or the internal/trace exporter generally): each
// file must parse as JSON, carry the exporter's document headers
// (millisecond display unit, a known time domain), and every event
// must satisfy the per-phase schema — metadata records carry no
// timestamp, spans have non-negative ts/dur, instants a known scope.
//
// With -series it instead validates the CSV time-series files emitted
// by `asyncmr -series` (internal/metrics): header/field shape, monotone
// ticks and times, and per-sample invariants.
//
// Usage:
//
//	tracecheck [-series] FILE...
//
// One line per valid file; the first invalid file aborts with a
// nonzero exit. The CI smoke job runs it over the files a live-mode
// `asyncmr -trace` run just wrote, and in -series mode over the series
// files of the metrics smoke run.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	series := flag.Bool("series", false,
		"validate time-series files (asyncmr -series output) instead of Chrome traces")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracecheck [-series] FILE...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			os.Exit(1)
		}
		var n int
		what := "events"
		if *series {
			n, err = metrics.ValidateSeries(data)
			what = "samples"
		} else {
			n, err = trace.ValidateChrome(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (%d %s)\n", path, n, what)
	}
}
