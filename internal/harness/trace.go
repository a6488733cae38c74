package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/async"
	"repro/internal/trace"
)

// splicePath derives one workload's trace or series file from the path
// the user gave, splicing the workload name before the extension:
// "out.json" -> "out.pagerank.json".
func splicePath(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// flushTrace writes one workload's recorded events as a Chrome
// trace-event file and returns the aggregated profile. Live runs are
// laid out in the wall domain (their recorder is wall-armed); the
// simulated executors use virtual time. A nil recorder (tracing off)
// is a no-op.
func (s *Suite) flushTrace(rec *trace.Recorder, workload string, live bool) (*trace.Profile, error) {
	if rec == nil {
		return nil, nil
	}
	domain := trace.Virtual
	if live {
		domain = trace.Wall
	}
	events := rec.Events()
	path := splicePath(s.TracePath, workload)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: trace: %w", err)
	}
	werr := trace.WriteChrome(f, events, domain, rec.Dropped())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("harness: trace %s: %w", path, werr)
	}
	s.logf("trace: %s: %d events (%d dropped) -> %s\n", workload, len(events), rec.Dropped(), path)
	return trace.NewProfile(events, rec.Dropped()), nil
}

// traceExecutors is the executor axis of the trace experiment.
var traceExecutors = []struct {
	Name string
	Exec async.Executor
}{
	{"DES", async.DES},
	{"Parallel", async.Parallel},
	{"Live", async.Live},
}

// TraceExperiment runs async PageRank under all three executors with
// the event recorder attached and reports each run's aggregated time
// decomposition — compute, gate wait, and stall, summed across
// partitions — plus the recorded event count. Each profile table is
// printed to w (the attribution view: which neighbor blocked whom).
// The DES leg also re-runs untraced and fails unless every RunStats
// field is identical, so the experiment itself enforces the inertness
// contract end to end. Live legs use the suite's cluster at its
// configured LiveNetScale and lay their export out in wall time.
func (s *Suite) TraceExperiment(w io.Writer) (*Figure, error) {
	in, err := s.midGraphA()
	if err != nil {
		return nil, err
	}
	preset := s.withCrashes(s.preset())
	var compute, gate, stall, events []float64
	for _, leg := range traceExecutors {
		opt := s.asyncOptions()
		opt.Executor = leg.Exec
		rec := trace.NewRecorder(trace.DefaultCapacity)
		opt.Trace = rec
		res, err := PageRank.Async(preset, in, opt)
		if err != nil {
			return nil, err
		}
		if leg.Exec == async.DES {
			base := opt
			base.Trace = nil
			ref, err := PageRank.Async(preset, in, base)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(res.Stats, ref.Stats) {
				return nil, fmt.Errorf("harness: tracing perturbed the DES run:\ntraced:   %+v\nuntraced: %+v",
					*res.Stats, *ref.Stats)
			}
		}
		pr := trace.NewProfile(rec.Events(), rec.Dropped())
		var c, gw, st float64
		for _, pp := range pr.Parts {
			c += pp.Compute.Seconds()
			gw += pp.GateWait.Seconds()
			st += pp.Stall.Seconds()
		}
		compute = append(compute, c)
		gate = append(gate, gw)
		stall = append(stall, st)
		events = append(events, float64(pr.Events))
		if w != nil {
			fmt.Fprintf(w, "--- %s executor ---\n", leg.Name)
			pr.WriteTable(w)
			fmt.Fprintln(w)
		}
		s.logf("trace %s: %d events, compute %.2fs gate %.2fs stall %.2fs\n",
			leg.Name, pr.Events, c, gw, st)
	}
	return &Figure{
		Title: fmt.Sprintf("Trace experiment: traced time decomposition per executor (Graph A PageRank, %d partitions, S=%d, %s)",
			len(in.Subs), s.AsyncStaleness, preset.Name),
		XLabel: "Executor", YLabel: "Summed seconds (virtual domain)",
		X: []float64{0, 1, 2},
		XFmt: func(v float64) string {
			return traceExecutors[int(v)].Name
		},
		Series: []Series{
			{Label: "Compute", Y: compute}, {Label: "GateWait", Y: gate},
			{Label: "Stall", Y: stall}, {Label: "Events", Y: events},
		},
	}, nil
}
