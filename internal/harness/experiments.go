package harness

import (
	"fmt"
	"io"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/stats"
)

// Suite holds shared experiment configuration.
type Suite struct {
	// Scale divides workload sizes: 1 reproduces paper-size inputs
	// (280K/100K-node graphs, 200K census points); tests and default
	// benches use 8-16. Partition counts scale down with it so
	// nodes-per-partition — the quantity that drives the effect —
	// matches the paper's sweep.
	Scale int
	// Cluster is the simulated platform; nil means the paper's Table I
	// EC2 cluster.
	Cluster *cluster.Config
	// Out receives progress lines; nil discards them.
	Out io.Writer
	// AsyncStaleness is the staleness bound for the async-mode figures
	// and workload runs: 0 is lockstep, negative is unbounded
	// free-running. NewSuite initializes it to DefaultStaleness.
	AsyncStaleness int
	// AsyncExecutor selects how async runs execute worker steps:
	// async.DES (default) is the sequential deterministic simulation;
	// async.Parallel overlaps steps on real goroutines with identical
	// virtual-time results. The CLI's -parallel flag sets it.
	AsyncExecutor async.Executor
	// AsyncWorkers caps the parallel executor's goroutine pool
	// (0 = GOMAXPROCS). Ignored under async.DES.
	AsyncWorkers int
	// CrashMTTF is the worker-crash mean time to failure, in simulated
	// seconds, applied to async runs (0 = crashes disabled). The CLI's
	// -mttf flag sets it.
	CrashMTTF float64
	// CheckpointPolicy is the worker checkpoint policy for async runs
	// (the zero value is none). The CLI's -ckpt flag sets it
	// (none | steps:K).
	CheckpointPolicy recovery.Policy
	// TracePath, when non-empty, attaches an event recorder
	// (internal/trace) to each async/live workload run and writes one
	// Chrome trace-event file per workload, splicing the workload name
	// before the extension ("out.json" -> "out.pagerank.json"). The
	// CLI's -trace flag sets it. Tracing is inert: recorded runs
	// produce bit-identical stats and results.
	TracePath string
	// SeriesPath, when non-empty, attaches a time-series sampler
	// (internal/metrics) to each async/live workload run and writes one
	// CSV series file per workload, splicing the workload name before
	// the extension ("out.csv" -> "out.pagerank.csv"). Each workload
	// first runs an unsampled probe to size the sampling grid, then reruns
	// sampled — sampling is inert, so the sampled run's stats are the
	// ones reported. The CLI's -series flag sets it.
	SeriesPath string
	// MaxSweepPoints caps how many partition counts a sweep visits
	// (0 = all). Tests trim the sweep so the full-pipeline assertions
	// run in seconds; benches and the CLI keep the complete axis.
	MaxSweepPoints int
	// KMeansScaleCap overrides the K-Means scale-down cap (0 = the
	// default 2; see Figures8and9). Tests raise it to shrink the
	// dataset; figure fidelity requires the default.
	KMeansScaleCap int
}

// NewSuite returns a suite at the given scale on the Table I cluster.
func NewSuite(scale int) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{
		Scale:          scale,
		Cluster:        cluster.EC2LargeCluster(),
		AsyncStaleness: DefaultStaleness,
	}
}

func (s *Suite) logf(format string, args ...any) {
	if s.Out == nil {
		return
	}
	fmt.Fprintf(s.Out, format, args...)
}

// preset returns the suite's simulated platform.
func (s *Suite) preset() *cluster.Config {
	if s.Cluster != nil {
		return s.Cluster
	}
	return cluster.EC2LargeCluster()
}

// PartitionCounts returns the paper's x-axis {100, 200, ..., 6400}
// divided by Scale (minimum 2). With MaxSweepPoints set, the axis is
// thinned to that many points, keeping the first and last so shape
// assertions still see both ends of the sweep.
func (s *Suite) PartitionCounts() []int {
	base := []int{100, 200, 400, 800, 1600, 3200, 6400}
	out := make([]int, 0, len(base))
	for _, k := range base {
		k /= s.Scale
		if k < 2 {
			k = 2
		}
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
	}
	if s.MaxSweepPoints > 1 && len(out) > s.MaxSweepPoints {
		thin := make([]int, 0, s.MaxSweepPoints)
		for i := 0; i < s.MaxSweepPoints; i++ {
			thin = append(thin, out[i*(len(out)-1)/(s.MaxSweepPoints-1)])
		}
		out = thin
	}
	return out
}

// GraphA returns the (scaled) Table II Graph A with SSSP weights.
func (s *Suite) GraphA() *graph.Graph { return s.tableGraph(graph.GraphAConfig(), 42) }

// GraphB returns the (scaled) Table II Graph B.
func (s *Suite) GraphB() *graph.Graph { return s.tableGraph(graph.GraphBConfig(), 43) }

func (s *Suite) tableGraph(cfg graph.GenerateConfig, weightSeed uint64) *graph.Graph {
	g := graph.MustGenerate(cfg.Scaled(s.Scale))
	g.AssignUniformWeights(1, 100, weightSeed)
	return g
}

// graphInputs builds g's sub-graphs for the given k with the multilevel
// (Metis-substitute) partitioner, mirroring the paper's one-time
// partitioning prepass (not charged to runtimes; §V-B3 reports ~5s,
// "negligible compared to the runtime ... and hence not included").
func graphInputs(g *graph.Graph, k int) (*Inputs, error) {
	a, err := partition.Partition(g, k, partition.Options{Seed: 7})
	if err != nil {
		return nil, err
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		return nil, err
	}
	return &Inputs{Subs: subs}, nil
}

// midK is the partition count of the single-configuration experiments:
// the middle of the sweep axis.
func (s *Suite) midK() int {
	ks := s.PartitionCounts()
	return ks[len(ks)/2]
}

// midGraphA is the fixture every single-configuration experiment runs
// on: Graph A cut into midK partitions.
func (s *Suite) midGraphA() (*Inputs, error) { return graphInputs(s.GraphA(), s.midK()) }

func intsToFloats(ks []int) []float64 {
	xs := make([]float64, len(ks))
	for i, k := range ks {
		xs[i] = float64(k)
	}
	return xs
}

// PartitionFigures sweeps w over the partition axis of g and returns the
// iterations figure and the time figure: general vs eager (the paper's
// Figures 2-7), plus the suite's async configuration when withAsync is
// set (the three-mode comparison).
func (s *Suite) PartitionFigures(w *Workload, g *graph.Graph, withAsync bool, titleIt, titleT string) ([]*Figure, error) {
	ks := s.PartitionCounts()
	modes, err := s.partitionSweep(w, s.modes(s.preset(), withAsync), g, ks)
	if err != nil {
		return nil, err
	}
	return modeFigures(titleIt, titleT, "# Partitions", intsToFloats(ks), nil, modes), nil
}

// kmeansScale caps the K-Means scale-down: the eager formulation
// averages per-partition local optima, and with fewer than ~2000 points
// per partition (52 partitions fixed by the paper) subset noise drowns
// the threshold-sensitivity Figures 8/9 measure. Tests override the cap
// via KMeansScaleCap.
func (s *Suite) kmeansScale() int {
	cap := s.KMeansScaleCap
	if cap <= 0 {
		cap = 2
	}
	scale := s.Scale
	if scale > cap {
		scale = cap
	}
	return scale
}

// KMeansThresholds is the paper's Figure 8/9 x-axis.
var KMeansThresholds = []float64{0.1, 0.01, 0.001, 0.0001}

// KMeansPartitions is the paper's fixed partition count for Figures 8/9.
const KMeansPartitions = 52

// Figures8and9 reproduces the K-Means threshold sweep (the dataset
// scales down at most 2x; see kmeansScale).
func (s *Suite) Figures8and9() ([]*Figure, error) {
	census, err := KMeans.Inputs(s)
	if err != nil {
		return nil, err
	}
	modes, err := s.sweep(KMeans, s.modes(s.preset(), false), len(KMeansThresholds), func(i int) (*Inputs, string, error) {
		in := *census
		in.Threshold = KMeansThresholds[i]
		return &in, fmt.Sprintf("thr=%g", in.Threshold), nil
	})
	if err != nil {
		return nil, err
	}
	return modeFigures(
		"Figure 8. K-Means: iterations to converge vs threshold (52 partitions)",
		"Figure 9. K-Means: time to converge vs threshold (52 partitions)",
		"Threshold (Delta)", KMeansThresholds, func(x float64) string { return fmt.Sprintf("%g", x) }, modes), nil
}

// Table1 renders the measurement testbed (paper Table I) from the
// simulated cluster configuration.
func (s *Suite) Table1(w io.Writer) {
	cfg := s.preset()
	fmt.Fprintln(w, "Table I. Measurement testbed, software (simulated)")
	fmt.Fprintln(w, "===================================================")
	fmt.Fprintf(w, "%-28s %s\n", "Cluster", cfg.Name)
	fmt.Fprintf(w, "%-28s %d nodes\n", "Amazon EC2 (simulated)", cfg.Nodes)
	fmt.Fprintf(w, "%-28s %d map / %d reduce slots per node\n", "Hadoop slot model", cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
	fmt.Fprintf(w, "%-28s %.0f MB/s NIC, %s latency\n", "Network", cfg.NetBandwidth/1e6, cfg.NetLatency)
	fmt.Fprintf(w, "%-28s %dx replication, %.0f MB/s\n", "DFS", cfg.DFSReplication, cfg.DFSBandwidth/1e6)
	fmt.Fprintf(w, "%-28s %s per job, %s per task\n", "Framework overheads", cfg.JobOverhead, cfg.TaskOverhead)
	fmt.Fprintf(w, "%-28s %s\n", "Partial sync overhead", cfg.LocalSyncOverhead)
	fmt.Fprintf(w, "%-28s %.2g per task attempt\n", "Transient failure rate", cfg.FailureProb)
	fmt.Fprintln(w)
}

// Table2 generates both input graphs and renders their properties
// (paper Table II), including the power-law fit that justifies the
// hubs-and-spokes premise.
func (s *Suite) Table2(w io.Writer) error {
	type row struct {
		name string
		g    *graph.Graph
	}
	rows := []row{{"Graph A", s.GraphA()}, {"Graph B", s.GraphB()}}
	fmt.Fprintln(w, "Table II. PageRank input graph properties")
	fmt.Fprintln(w, "=========================================")
	fmt.Fprintf(w, "%-18s %12s %12s %9s %12s %8s\n", "Input graphs", "Nodes", "Edges", "Damping", "PL exponent", "fit R2")
	for _, r := range rows {
		fit := stats.FitPowerLaw(r.g.InDegrees(), 2)
		fmt.Fprintf(w, "%-18s %12d %12d %9.2f %12.2f %8.2f\n",
			r.name, r.g.NumNodes(), r.g.NumEdges(), 0.85, fit.Alpha, fit.R2)
	}
	fmt.Fprintln(w)
	return nil
}

// Scalability reproduces the §VI remark: the same PageRank workload on a
// simulated 460-node CluE-like cluster, showing eager's gains persist at
// scale (heavier per-job overheads and oversubscribed network).
func (s *Suite) Scalability() (*Figure, error) {
	ks := []int{460, 920, 1840}
	for i := range ks {
		if ks[i] /= s.Scale; ks[i] < 2 {
			ks[i] = 2
		}
	}
	modes, err := s.partitionSweep(PageRank, s.modes(cluster.CluECluster(), false), s.GraphA(), ks)
	if err != nil {
		return nil, err
	}
	// The remark is about time; the iterations figure is not rendered.
	return modeFigures("", "Scalability (§VI): PageRank on simulated 460-node CluE cluster",
		"# Partitions", intsToFloats(ks), nil, modes)[1], nil
}
