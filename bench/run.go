package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

const (
	passUntraced = "untraced"
	passTraced   = "traced"

	// minRounds is the fewest rounds a timed run makes, however slow.
	minRounds = 3
	// buildShare is the share of a workload's measuring time spent on
	// timed rebuilds of its inputs. Spreading the rebuilds over the run
	// lets set-up time meet the host's quiet state as the iterations do,
	// and a cheap set-up gets the many samples it needs to read steadily.
	buildShare = 0.1
)

// passConfig is what one pass over a set of workloads is run with.
type passConfig struct {
	seed    uint64
	z       size
	seconds float64 // measuring budget per workload
	iters   int     // the smoke test only: when > 0, a fixed number of rounds instead
	traced  bool
}

// metricValue is one reported number. Lo and Hi are the same estimator
// on the first and the second half of the N per-iteration values: how
// far the number moves within one run.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	N      int     `json:"n"`
	Source string  `json:"source"`
}

// workloadResult is one workload's outcome in one pass.
type workloadResult struct {
	Workload   string                 `json:"workload"`
	Pass       string                 `json:"pass"`
	Iterations int                    `json:"iterations"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Error      string                 `json:"error,omitempty"`
	WallS      float64                `json:"wall_s"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// runner is one workload's state during a pass.
type runner struct {
	w        workload
	setup    []float64 // host seconds of each input build
	plain    []sample  // iterations with tracing off
	traced   []sample  // iterations of the traced variant
	o        obs
	rounds   int
	spent    time.Duration // wall time this workload has used in the pass
	measure  time.Duration // the part of it spent measuring
	building time.Duration // the part of measure spent rebuilding the inputs
	res      workloadResult
}

// fail counts one failed operation and keeps the first error's text.
func (r *runner) fail(err error) {
	r.res.Failed++
	if r.res.Error == "" {
		r.res.Error = err.Error()
	}
}

// runPass sets up every named workload, then measures them. With several
// workloads the rounds are interleaved, so that each workload samples
// the whole session and not one stretch of the host's mood.
func runPass(names []string, cfg passConfig, tr *recorder) ([]workloadResult, error) {
	if !cfg.traced {
		tr = nil
	}
	runners := make([]*runner, len(names))
	for i, name := range names {
		w, err := newWorkload(name, cfg.seed, cfg.z)
		if err != nil {
			return nil, err
		}
		r := &runner{w: w, res: workloadResult{Workload: name, Pass: passUntraced}}
		if cfg.traced {
			r.res.Pass = passTraced
			r.o = obs{}
		}
		runners[i] = r
		if err := r.setUp(tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
	}
	for active := true; active; {
		active = false
		for _, r := range runners {
			if r.done(cfg) {
				continue
			}
			active = true
			r.round(tr)
			if r.building.Seconds() < buildShare*r.measure.Seconds() {
				d, err := r.build(tr)
				if err != nil {
					return nil, fmt.Errorf("%s: rebuild: %w", r.w.name(), err)
				}
				r.measure += d
				r.building += d
			}
		}
	}
	results := make([]workloadResult, len(runners))
	for i, r := range runners {
		if err := r.finish(tr); err != nil {
			return nil, fmt.Errorf("%s: %w", r.w.name(), err)
		}
		results[i] = r.res
	}
	return results, nil
}

// section runs f under a root span and charges its wall time to the
// workload.
func (r *runner) section(tr *recorder, span string, f func()) time.Duration {
	t0 := time.Now()
	if tr != nil {
		tr.workload, tr.iter = r.w.name(), r.rounds
	}
	id := tr.begin(span)
	f()
	tr.end(id)
	d := time.Since(t0)
	r.spent += d
	return d
}

// build makes the workload's inputs from the seed again and times it.
// The inputs it replaces are collected at once, not inside the next
// timed iterations.
func (r *runner) build(tr *recorder) (time.Duration, error) {
	var err error
	d := r.section(tr, "bench.setup", func() {
		t0 := time.Now()
		err = r.w.build(tr, r.o)
		r.setup = append(r.setup, time.Since(t0).Seconds())
		runtime.GC()
	})
	return d, err
}

func (r *runner) setUp(tr *recorder) error {
	_, err := r.build(tr)
	if err != nil {
		return err
	}
	r.section(tr, "bench.warm", func() { err = r.w.warm() })
	return err
}

func (r *runner) done(cfg passConfig) bool {
	if cfg.iters > 0 {
		return r.rounds >= cfg.iters
	}
	return r.rounds >= minRounds && r.measure.Seconds() >= cfg.seconds
}

// round is one iteration with tracing off and, in the traced pass, one
// traced iteration and the workload's companion run beside it, so that
// the three share whatever the host is doing at the time.
func (r *runner) round(tr *recorder) {
	r.measure += r.section(tr, "bench.round", func() {
		id := tr.begin("bench.iterate.untraced")
		r.keep(&r.plain, r.w.iterate(nil, r.o))
		tr.end(id)
		if tr == nil {
			return
		}
		id = tr.begin("bench.iterate.traced")
		r.keep(&r.traced, r.w.iterate(tr, r.o))
		tr.end(id)
		id = tr.begin("bench.companion")
		r.res.Attempted++
		if err := r.w.companion(r.o); err != nil {
			r.fail(err)
		}
		tr.end(id)
	})
	r.rounds++
}

// keep counts an iteration and keeps its sample unless it failed: a
// wrong answer must not contribute a time.
func (r *runner) keep(to *[]sample, s sample) {
	r.res.Attempted++
	if s.err != nil {
		r.fail(s.err)
		return
	}
	*to = append(*to, s)
}

func column(samples []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

// quietRun is the quiet estimator of an iteration made of several timed
// parts (the two runs of a pair, the three modes of modes_pagerank): each
// part at its own fastest sample, summed. The host's noise comes in
// stretches shorter than such an iteration, so the parts meet its quiet
// state separately far more often than together.
func quietRun(samples []sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	total := 0.0
	for k := range samples[0].parts {
		total += quiet(column(samples, func(s sample) float64 { return s.parts[k] }))
	}
	return total
}

// finish runs the traced pass's replays and turns the samples into the
// pass's metrics. A pass with a failure reports no metrics at all.
func (r *runner) finish(tr *recorder) error {
	if tr != nil && r.res.Failed == 0 {
		r.section(tr, "bench.replays", func() {
			r.res.Attempted++
			if err := r.w.replays(tr, r.o); err != nil {
				r.fail(err)
			}
		})
	}
	r.res.Iterations = len(r.plain)
	r.res.WallS = r.spent.Seconds()
	r.res.Metrics = map[string]metricValue{}
	if r.res.Failed > 0 {
		return nil
	}
	if tr == nil {
		r.endToEnd()
		return nil
	}
	return r.perLayer()
}

func (r *runner) endToEnd() {
	values := map[string][]float64{
		"sim_s":    column(r.plain, func(s sample) float64 { return sum(s.sims) }),
		"allocs":   column(r.plain, func(s sample) float64 { return float64(s.allocs) }),
		"alloc_mb": column(r.plain, func(s sample) float64 { return float64(s.bytes) / 1e6 }),
		"setup_s":  r.setup,
	}
	for _, def := range endToEnd {
		if def.Name == "run_s" {
			r.res.Metrics[def.Name] = aggregate(def, len(r.plain), func(from, to int) float64 { return quietRun(r.plain[from:to]) })
			continue
		}
		xs := values[def.Name]
		r.res.Metrics[def.Name] = aggregate(def, len(xs), over(def.estimator(), xs))
	}
}

// over applies an estimator to a range of xs.
func over(estimate func([]float64) float64, xs []float64) func(from, to int) float64 {
	return func(from, to int) float64 { return estimate(xs[from:to]) }
}

// aggregate turns n per-iteration values into one reported number:
// estimate over all of them, and over each half for Lo and Hi.
func aggregate(def metricDef, n int, estimate func(from, to int) float64) metricValue {
	v := metricValue{Value: estimate(0, n), Unit: def.Unit, Source: def.Src, N: n}
	v.Lo, v.Hi = v.Value, v.Value
	if half := n / 2; half > 0 {
		a, b := estimate(0, half), estimate(half, n)
		v.Lo, v.Hi = math.Min(a, b), math.Max(a, b)
	}
	return v
}

// perLayer turns the traced pass's observations into its metrics. The
// pipeline's contract wants every per-layer metric from every traced run,
// so a metric of a layer the workload does not exercise is reported as 0.
func (r *runner) perLayer() error {
	runs := column(r.plain, func(s sample) float64 { return sum(s.parts) })
	agg := map[string]float64{"_run_s": quietRun(r.plain)}
	for key, xs := range r.o {
		if key[0] == '_' {
			agg[key] = quiet(xs)
		}
	}
	values := map[string]metricValue{}
	for _, def := range perLayer {
		if xs, ok := r.o[def.Name]; ok {
			values[def.Name] = aggregate(def, len(xs), over(def.estimator(), xs))
			agg[def.Name] = values[def.Name].Value
		}
	}
	agg["bench.run_min_s"] = agg["_run_s"]
	agg["bench.run_p25_s"] = quantile(runs, 0.25)
	agg["bench.run_med_s"] = median(runs)
	agg["bench.run_p75_s"] = quantile(runs, 0.75)
	agg["bench.iterations"] = float64(len(runs))
	agg["bench.trace_overhead_frac"] = quietRun(r.traced)/agg["_run_s"] - 1
	r.w.derive(agg)
	for _, def := range perLayer {
		if !def.on(r.w.name()) {
			r.res.Metrics[def.Name] = metricValue{Unit: def.Unit, Source: def.Src}
			continue
		}
		got, measured := agg[def.Name]
		if !measured || math.IsNaN(got) || math.IsInf(got, 0) {
			return fmt.Errorf("metric %s: no finite value (%v)", def.Name, got)
		}
		v, ok := values[def.Name]
		if !ok {
			v = metricValue{Unit: def.Unit, Source: def.Src, Lo: got, Hi: got}
		}
		v.Value = got
		r.res.Metrics[def.Name] = v
	}
	return nil
}
