// Command bench is the repository's benchmark: six workloads over the
// asynchronous runtime and the synchronous engines it is compared with,
// end-to-end metrics measured with tracing off, and per-layer metrics
// from a separate traced pass that times every call into a layer from
// outside. README.md in this directory is the glossary; BENCHMARK.json
// at the repository root names the workloads, metrics, units and
// regression bounds.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench -workload sched_noop -trace 0    one workload, end-to-end metrics
//	go run ./bench -workload sched_noop -trace 1    one workload, per-layer metrics
//	go run ./bench -out a.json -spans a.spans.json  keep the results and the spans
//	go run ./bench -compare a.json b.json           compare two results files
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed run or correctness
// check empties metrics and makes the exit code 1: a fast wrong answer
// must not produce a number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is how long each workload is measured in each pass
// unless -seconds says otherwise; BENCHMARK.json's run_seconds repeats it.
// Long enough to meet the host's quiet state (README.md, "Host noise"),
// short enough for the pipeline's runs to fit its time cap.
const defaultSeconds = 18

var allWorkloads = []string{
	wlPagerankDES, wlPagerankParallel, wlPagerankLive,
	wlSchedNoop, wlSchedNoopHooks, wlModesPagerank,
}

// manifest is the provenance written into every results and span file:
// enough to run the same thing again.
type manifest struct {
	GitRevision string   `json:"git_revision"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"nproc"`
	Seed        uint64   `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Workloads   []string `json:"workloads"`
	Passes      []string `json:"passes"`
	Start       string   `json:"start"`
}

// resultsFile is what -out writes and -compare reads. Each result names
// its pass and carries its own iteration count; each metric names the
// source its number came from.
type resultsFile struct {
	Manifest manifest         `json:"manifest"`
	Results  []workloadResult `json:"results"`
}

type spansFile struct {
	Manifest manifest `json:"manifest"`
	Spans    []span   `json:"spans"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Uint64("seed", 1, "seed the inputs are generated from (1 while developing a change, 2 to confirm it)")
		seconds      = flag.Float64("seconds", defaultSeconds, "seconds each workload is measured for in each pass")
		trace        = flag.String("trace", "", "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass; unset: both")
		out          = flag.String("out", "", "write the results, with their provenance, to this file")
		spansOut     = flag.String("spans", "", "write the traced pass's spans to this file")
		compare      = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}

	names := allWorkloads
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	var passes []string
	switch *trace {
	case "":
		passes = []string{passUntraced, passTraced}
	case "0":
		passes = []string{passUntraced}
	case "1":
		passes = []string{passTraced}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %q\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	man := manifest{
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seed:        *seed,
		Seconds:     *seconds,
		Workloads:   names,
		Passes:      passes,
		Start:       time.Now().Format(time.RFC3339Nano),
	}
	tr := newRecorder()
	var results []workloadResult
	for _, pass := range passes {
		cfg := passConfig{seed: *seed, z: size{1}, seconds: *seconds, traced: pass == passTraced}
		res, err := runPass(names, cfg, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		results = append(results, res...)
	}

	if *out != "" {
		if err := writeJSON(*out, resultsFile{Manifest: man, Results: results}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *spansOut != "" {
		fillSelfTimes(tr.spans)
		if err := writeJSON(*spansOut, spansFile{Manifest: man, Spans: tr.spans}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	sum := report(os.Stdout, results)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// report prints every metric a workload exercises by name with its unit
// and source, one per line, and builds the summary, which also carries
// the zeros of the layers a workload does not exercise. Metrics keep
// their bare names when one workload ran one pass, and are prefixed with
// the workload otherwise.
func report(w io.Writer, results []workloadResult) summary {
	sum := summary{Correct: true, Metrics: map[string]summaryItem{}}
	for _, res := range results {
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		if res.Failed > 0 {
			fmt.Fprintf(w, "%-18s %-8s FAILED %d of %d: %s\n", res.Workload, res.Pass, res.Failed, res.Attempted, res.Error)
		}
	}
	if sum.Failed > 0 {
		sum.Correct = false
		return sum
	}
	for _, res := range results {
		defs := endToEnd
		if res.Pass == passTraced {
			defs = perLayer
		}
		for _, def := range defs {
			v := res.Metrics[def.Name]
			if def.on(res.Workload) {
				fmt.Fprintf(w, "%-18s %-8s %-34s %14.6g %-6s %s\n", res.Workload, res.Pass, def.Name, v.Value, v.Unit, v.Source)
			}
			key := def.Name
			if len(results) > 1 {
				key = res.Workload + "/" + def.Name
			}
			sum.Metrics[key] = summaryItem{Value: v.Value, Unit: v.Unit}
		}
	}
	return sum
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitRevision names the commit the benchmark was run from, with -dirty
// when the work tree differs from it, or "unknown" outside a git
// checkout.
func gitRevision() string {
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(rev))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		s += "-dirty"
	}
	return s
}
