package harness

import (
	"io"
	"slices"

	"repro/internal/cluster"
)

// Experiment is one entry of the experiment registry: everything
// cmd/asyncmr, the root benchmark and the tests know about an
// experiment. The registry is the only list of experiments there is.
type Experiment struct {
	// Names are the CLI spellings. An entry with several names computes
	// one figure per name in one run (the paper's iterations/time
	// pairs); name i selects figure i. An entry with one name renders
	// every figure it returns.
	Names []string
	// Help is the one-line description asyncmr -h prints.
	Help string
	// Run executes the experiment: it writes whatever is not a figure
	// (tables, profiles, headlines) to w and returns the figures for the
	// caller to render. mode is the CLI's -mode; only an experiment with
	// "mode" among its Flags reads it.
	Run func(s *Suite, mode string, w io.Writer) ([]*Figure, error)
	// WallClock marks output that depends on the host's clock, cores or
	// scheduling; every other entry renders the same bytes on every run.
	WallClock bool
	// Flags lists the asyncmr flags, beyond -scale, -v and the two
	// profile flags (which every experiment honours), that change what
	// the experiment does. asyncmr refuses any other flag rather than
	// accept and ignore it.
	Flags []string
	// Standalone keeps the entry out of `asyncmr all`.
	Standalone bool
}

// ExperimentFlags are the asyncmr flags an experiment may or may not
// honour (Experiment.Flags draws from this list).
var ExperimentFlags = []string{"mode", "staleness", "parallel", "workers", "mttf", "ckpt", "trace", "series", "metrics-addr"}

// runModeFlags is what the `run` experiment honours in each -mode: the
// MapReduce modes have no async runtime to configure, and the live
// executor picks the executor itself and rejects the virtual-time crash
// model.
var runModeFlags = map[string][]string{
	"general": {"mode"},
	"eager":   {"mode"},
	"async":   ExperimentFlags,
	"live":    {"mode", "staleness", "workers", "trace", "series", "metrics-addr"},
}

// Ignored returns which of the given flags (names as flag.Visit reports
// them) the experiment would accept and then ignore in the given -mode.
func (e *Experiment) Ignored(mode string, set []string) []string {
	honoured := e.Flags
	if byMode, ok := runModeFlags[mode]; ok && slices.Contains(e.Flags, "mode") {
		honoured = byMode
	}
	// -workers sizes the parallel and live pools; where the executor is
	// the user's choice, the DES default ignores it.
	desIgnoresWorkers := slices.Contains(honoured, "parallel") && !slices.Contains(set, "parallel")
	var ignored []string
	for _, f := range ExperimentFlags {
		if slices.Contains(set, f) && (!slices.Contains(honoured, f) || f == "workers" && desIgnoresWorkers) {
			ignored = append(ignored, f)
		}
	}
	return ignored
}

// one adapts a single-figure experiment to Experiment.Run's result.
func one(f *Figure, err error) ([]*Figure, error) {
	if err != nil {
		return nil, err
	}
	return []*Figure{f}, nil
}

var (
	// asyncFlags configure the suite's async runs: bound or policy,
	// executor, pool size, crash model, checkpoint policy.
	asyncFlags = []string{"staleness", "parallel", "workers", "mttf", "ckpt"}
	// sweptBoundFlags is asyncFlags for the figures that sweep the
	// staleness axis themselves.
	sweptBoundFlags = []string{"parallel", "workers", "mttf", "ckpt"}
)

// experiments is the registry, in the order `asyncmr all` runs it.
var experiments = []*Experiment{
	{Names: []string{"table1"}, Help: "paper Table I: the simulated measurement testbed",
		Run: func(s *Suite, _ string, w io.Writer) ([]*Figure, error) { s.Table1(w); return nil, nil }},
	{Names: []string{"table2"}, Help: "paper Table II: input graph properties and power-law fit",
		Run: func(s *Suite, _ string, w io.Writer) ([]*Figure, error) { return nil, s.Table2(w) }},
	{Names: []string{"figure2", "figure4"}, Help: "PageRank iterations / time to converge vs partitions, Graph A (general vs eager)",
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return s.PartitionFigures(PageRank, s.GraphA(), false,
				"Figure 2. PageRank: iterations to converge vs partitions (Graph A)",
				"Figure 4. PageRank: time to converge vs partitions (Graph A)")
		}},
	{Names: []string{"figure3", "figure5"}, Help: "the same pair on Graph B",
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return s.PartitionFigures(PageRank, s.GraphB(), false,
				"Figure 3. PageRank: iterations to converge vs partitions (Graph B)",
				"Figure 5. PageRank: time to converge vs partitions (Graph B)")
		}},
	{Names: []string{"figure6", "figure7"}, Help: "SSSP iterations / time to converge vs partitions, Graph A (general vs eager)",
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return s.PartitionFigures(SSSP, s.GraphA(), false,
				"Figure 6. SSSP: iterations to converge vs partitions (Graph A)",
				"Figure 7. SSSP: time to converge vs partitions (Graph A)")
		}},
	{Names: []string{"figure8", "figure9"}, Help: "K-Means iterations / time to converge vs threshold, 52 partitions (general vs eager)",
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) { return s.Figures8and9() }},
	{Names: []string{"asyncA"}, Help: "three-mode comparison (general, eager, async): PageRank iterations and time vs partitions, Graph A",
		Flags: asyncFlags,
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return s.PartitionFigures(PageRank, s.GraphA(), true,
				"Async mode: PageRank iterations vs partitions (Graph A)",
				"Async mode: PageRank time to converge vs partitions (Graph A)")
		}},
	{Names: []string{"asyncB"}, Help: "the same comparison on Graph B",
		Flags: asyncFlags,
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return s.PartitionFigures(PageRank, s.GraphB(), true,
				"Async mode: PageRank iterations vs partitions (Graph B)",
				"Async mode: PageRank time to converge vs partitions (Graph B)")
		}},
	{Names: []string{"staleness"}, Help: "async PageRank across the staleness axis S = 0..inf: time, mean steps, gate waits",
		Flags: sweptBoundFlags,
		Run:   func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) { return one(s.StalenessSweep(s.preset())) }},
	{Names: []string{"stalenessx"}, Help: "the staleness sweep on the EC2 cross-rack cluster (at -scale 1 gate waits and push traffic are material)",
		Flags: sweptBoundFlags,
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return one(s.StalenessSweep(cluster.EC2CrossRackCluster()))
		}},
	{Names: []string{"stalenessclue"}, Help: "the staleness sweep on the 460-node CluE cluster model",
		Flags: sweptBoundFlags,
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return one(s.StalenessSweep(cluster.CluECluster()))
		}},
	{Names: []string{"localsweeps"}, Help: "async PageRank's bound on local sweeps per step: sim_s at q = full, 10..1 on four presets x S = 0, 4, inf, and the bound the rule picks",
		Flags: []string{"parallel", "workers"},
		Run:   func(s *Suite, _ string, w io.Writer) ([]*Figure, error) { return one(s.FigureLocalSweeps(w)) }},
	{Names: []string{"parallel"}, Help: "wall-clock speedup of the parallel executor at 1..8 goroutines over the sequential DES (identical virtual-time results, checked)",
		WallClock: true, Flags: []string{"staleness", "mttf", "ckpt"},
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return one(s.FigureParallelScaling(s.preset()))
		}},
	{Names: []string{"parallelhpc"}, Help: "the same figure on the HPC preset, whose microsecond publish latency makes speculations stale most often",
		WallClock: true, Flags: []string{"staleness", "mttf", "ckpt"},
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return one(s.FigureParallelScaling(cluster.HPCCluster()))
		}},
	{Names: []string{"livescaling"}, Help: "live executor at 1/2/4 workers: measured speedup of free-running (S=inf) over lockstep (S=0), ranks checked against the DES oracle",
		WallClock: true,
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) {
			return one(s.figureLiveScaling())
		}},
	{Names: []string{"recovery"}, Help: "worker-crash fault model: time to converge across checkpoint intervals under three MTTFs, with the checkpoint-write vs replay decomposition",
		Flags: []string{"staleness", "parallel", "workers"},
		Run:   func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) { return one(s.FigureRecoverySweep()) }},
	{Names: []string{"trace"}, Help: "async PageRank traced under all three executors: per-run profile (compute / gate-wait / stall, top blocking edges), tracing re-checked inert on DES",
		WallClock: true, Flags: []string{"staleness", "workers"},
		Run: func(s *Suite, _ string, w io.Writer) ([]*Figure, error) { return one(s.TraceExperiment(w)) }},
	{Names: []string{"convergence"}, Help: "residual-vs-time telemetry: lockstep baseline, async on DES and parallel (series byte-identical, checked) and live; time to the baseline's final residual",
		WallClock: true, Flags: []string{"staleness", "workers"},
		Run: func(s *Suite, _ string, w io.Writer) ([]*Figure, error) { return one(s.FigureConvergence(w)) }},
	{Names: []string{"scale"}, Help: "§VI scalability remark: general vs eager PageRank on the simulated 460-node CluE cluster",
		Run: func(s *Suite, _ string, _ io.Writer) ([]*Figure, error) { return one(s.Scalability()) }},
	{Names: []string{"run"}, Help: "PageRank, SSSP, connected components (async and live only) and K-Means end to end in the -mode given: general, eager, async or live (real compute, measured wall clock)",
		WallClock: true, Flags: ExperimentFlags, Standalone: true,
		Run: func(s *Suite, mode string, w io.Writer) ([]*Figure, error) {
			rows, err := s.RunWorkloads(mode, s.AsyncStaleness)
			if err != nil {
				return nil, err
			}
			RenderWorkloadRows(w, rows, s.stalenessSpelling())
			return nil, nil
		}},
}

// Experiments returns the registry in `asyncmr all` order.
func Experiments() []*Experiment { return experiments }

// Lookup finds the entry carrying name and the name's position in it.
func Lookup(name string) (e *Experiment, index int) {
	for _, e := range experiments {
		if i := slices.Index(e.Names, name); i >= 0 {
			return e, i
		}
	}
	return nil, 0
}
