package harness

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kmeans"
	"repro/internal/mapreduce"
	"repro/internal/pagerank"
	"repro/internal/sssp"
)

// Inputs is what one workload run consumes: a partitioned graph (the
// graph workloads) or the census points, their partition count and the
// convergence threshold (K-Means).
type Inputs struct {
	Subs      []*graph.SubGraph
	Points    [][]float64
	Parts     int
	Threshold float64
}

// Run is the outcome of one workload run in any scheduling mode.
type Run struct {
	Iterations float64 // global iterations (mean worker steps for async)
	SimSeconds float64
	Converged  bool
	// Stats carries the async runtime's full counters (nil for the
	// MapReduce modes, whose engine reports a different set).
	Stats *async.RunStats
	// State is an async run's converged state: PageRank's ranks, SSSP's
	// distances, CC's labels or K-Means' centroids (nil for the MapReduce
	// modes).
	State any
}

// Workload is one row of the workload table: how to build a workload's
// end-to-end inputs at a suite's scale and how to run inputs of that
// shape in each scheduling mode. Every experiment, RunWorkloads and the
// root benchmarks reach the adapters through a row, so each adapter's
// entry points are spelled once.
type Workload struct {
	Name string
	// Inputs builds the inputs RunWorkloads runs at the suite's scale.
	Inputs func(s *Suite) (*Inputs, error)
	// sync runs the general (eager false) or eager formulation; nil when
	// the workload has no MapReduce formulation.
	sync  func(e *mapreduce.Engine, in *Inputs, eager bool) (*core.RunStats, error)
	async func(c *cluster.Cluster, in *Inputs, opt async.Options) (*async.RunStats, any, error)
}

// The workload table. CC exists only on the asynchronous runtime: label
// propagation has no MapReduce formulation here.
var (
	PageRank = &Workload{
		Name:   "pagerank",
		Inputs: (*Suite).midGraphA,
		sync: func(e *mapreduce.Engine, in *Inputs, eager bool) (*core.RunStats, error) {
			r, err := pagerank.Run(e, in.Subs, pagerank.DefaultConfig(), eager)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		},
		async: func(c *cluster.Cluster, in *Inputs, opt async.Options) (*async.RunStats, any, error) {
			r, err := pagerank.RunAsync(c, in.Subs, pagerank.DefaultConfig(), opt)
			if err != nil {
				return nil, nil, err
			}
			return r.Stats, r.Ranks, nil
		},
	}
	SSSP = &Workload{
		Name:   "sssp",
		Inputs: (*Suite).midGraphA,
		sync: func(e *mapreduce.Engine, in *Inputs, eager bool) (*core.RunStats, error) {
			r, err := sssp.Run(e, in.Subs, sssp.Config{Source: 0}, eager)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		},
		async: func(c *cluster.Cluster, in *Inputs, opt async.Options) (*async.RunStats, any, error) {
			r, err := sssp.RunAsync(c, in.Subs, sssp.Config{Source: 0}, opt)
			if err != nil {
				return nil, nil, err
			}
			return r.Stats, r.Dist, nil
		},
	}
	CC = &Workload{
		Name:   "cc",
		Inputs: (*Suite).midGraphA,
		async: func(c *cluster.Cluster, in *Inputs, opt async.Options) (*async.RunStats, any, error) {
			r, err := cc.RunAsync(c, in.Subs, cc.Config{}, opt)
			if err != nil {
				return nil, nil, err
			}
			return r.Stats, r.Comp, nil
		},
	}
	KMeans = &Workload{
		Name: "kmeans",
		Inputs: func(s *Suite) (*Inputs, error) {
			pts, err := kmeans.GenerateCensus(kmeans.DefaultCensusConfig().Scaled(s.kmeansScale()))
			if err != nil {
				return nil, err
			}
			return &Inputs{Points: pts, Parts: KMeansPartitions, Threshold: 0.01}, nil
		},
		sync: func(e *mapreduce.Engine, in *Inputs, eager bool) (*core.RunStats, error) {
			r, err := kmeans.Run(e, in.Points, in.Parts, kmeans.DefaultConfig(in.Threshold), eager)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		},
		async: func(c *cluster.Cluster, in *Inputs, opt async.Options) (*async.RunStats, any, error) {
			r, err := kmeans.RunAsync(c, in.Points, in.Parts, kmeans.DefaultConfig(in.Threshold), opt)
			if err != nil {
				return nil, nil, err
			}
			return r.Stats, r.Centroids, nil
		},
	}

	// Workloads lists the table in RunWorkloads' row order.
	Workloads = []*Workload{PageRank, SSSP, CC, KMeans}
)

// HasSync reports whether the workload has the paper's general and
// eager MapReduce formulations.
func (w *Workload) HasSync() bool { return w.sync != nil }

// Sync runs the general (eager false) or eager formulation on a fresh
// engine over a fresh cluster of the given preset.
func (w *Workload) Sync(preset *cluster.Config, in *Inputs, eager bool) (Run, error) {
	if !w.HasSync() {
		return Run{}, fmt.Errorf("harness: %s has no MapReduce formulation", w.Name)
	}
	st, err := w.sync(mapreduce.NewEngine(cluster.New(preset)), in, eager)
	if err != nil {
		return Run{}, err
	}
	return Run{Iterations: float64(st.GlobalIterations), SimSeconds: st.Duration.Seconds(), Converged: st.Converged}, nil
}

// Async runs the workload on the asynchronous runtime under opt, on a
// fresh cluster of the given preset.
func (w *Workload) Async(preset *cluster.Config, in *Inputs, opt async.Options) (Run, error) {
	st, state, err := w.async(cluster.New(preset), in, opt)
	if err != nil {
		return Run{}, err
	}
	return Run{st.MeanSteps, st.Duration.Seconds(), st.Converged, st, state}, nil
}

// ModeSeries is one scheduling mode's results across a sweep: the
// mode's label plus parallel iteration and time series. The async
// entries report mean worker steps as "iterations" — the per-partition
// analogue of a global iteration.
type ModeSeries struct {
	Label string
	Iters []float64
	Times []float64
}

// mode is one scheduling mode of a sweep: its series label and how to
// run a workload in it.
type mode struct {
	label string
	run   func(w *Workload, in *Inputs) (Run, error)
}

// modes lists the scheduling modes a comparison sweeps on one preset:
// general and eager, plus the suite's async configuration when
// withAsync is set. Adding a mode (or another async executor) means
// appending a row here; sweep results are indexed by position in this
// slice, so no call site hard-codes the mode count.
func (s *Suite) modes(preset *cluster.Config, withAsync bool) []mode {
	ms := []mode{
		{"General", func(w *Workload, in *Inputs) (Run, error) { return w.Sync(preset, in, false) }},
		{"Eager", func(w *Workload, in *Inputs) (Run, error) { return w.Sync(preset, in, true) }},
	}
	if withAsync {
		ms = append(ms, mode{s.asyncLabel(), func(w *Workload, in *Inputs) (Run, error) {
			return w.Async(s.withCrashes(preset), in, s.asyncOptions())
		}})
	}
	return ms
}

// sweep runs w in every mode at each of n axis points; at builds point
// i's inputs and names the point for the progress log.
func (s *Suite) sweep(w *Workload, modes []mode, n int, at func(i int) (in *Inputs, point string, err error)) ([]ModeSeries, error) {
	out := make([]ModeSeries, len(modes))
	for j, m := range modes {
		out[j].Label = m.label
	}
	for i := 0; i < n; i++ {
		in, point, err := at(i)
		if err != nil {
			return nil, err
		}
		s.logf("%s %s:", w.Name, point)
		for j, m := range modes {
			r, err := m.run(w, in)
			if err != nil {
				return nil, err
			}
			out[j].Iters = append(out[j].Iters, r.Iterations)
			out[j].Times = append(out[j].Times, r.SimSeconds)
			s.logf(" %s %.1f it %.0fs", m.label, r.Iterations, r.SimSeconds)
		}
		s.logf("\n")
	}
	return out, nil
}

// partitionSweep sweeps w over partition counts ks of g.
func (s *Suite) partitionSweep(w *Workload, modes []mode, g *graph.Graph, ks []int) ([]ModeSeries, error) {
	return s.sweep(w, modes, len(ks), func(i int) (*Inputs, string, error) {
		in, err := graphInputs(g, ks[i])
		return in, fmt.Sprintf("k=%d", ks[i]), err
	})
}

// modeFigures assembles a sweep's iterations figure and time figure.
func modeFigures(titleIt, titleT, xlabel string, x []float64, xfmt func(float64) string, modes []ModeSeries) []*Figure {
	its := make([]Series, len(modes))
	ts := make([]Series, len(modes))
	for i, m := range modes {
		its[i] = Series{Label: m.Label, Y: m.Iters}
		ts[i] = Series{Label: m.Label, Y: m.Times}
	}
	return []*Figure{
		{Title: titleIt, XLabel: xlabel, YLabel: "# Iterations", X: x, XFmt: xfmt, Series: its, Comparable: true},
		{Title: titleT, XLabel: xlabel, YLabel: "Time (seconds)", X: x, XFmt: xfmt, Series: ts, Comparable: true},
	}
}
