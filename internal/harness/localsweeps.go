package harness

import (
	"fmt"
	"io"
	"math"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/pagerank"
)

// localSweepBounds is the localsweeps experiment's q axis: bounds on the
// local sweeps of one async PageRank step, the first of them full local
// convergence (async.DefaultMaxSteps sweeps), which every other row is
// measured against.
var localSweepBounds = []int{async.DefaultMaxSteps, 10, 8, 6, 5, 4, 3, 2, 1}

// localSweepCell is one column of the grid: a preset at a staleness bound.
type localSweepCell struct {
	label     string
	preset    *cluster.Config
	staleness int
}

// localSweepCells are the grid's columns: the four presets, each at
// S = 0, DefaultStaleness and unbounded.
func localSweepCells() []localSweepCell {
	var cells []localSweepCell
	for _, p := range []struct {
		label  string
		preset *cluster.Config
	}{
		{"ec2", cluster.EC2LargeCluster()},
		{"xrack", cluster.EC2CrossRackCluster()},
		{"clue", cluster.CluECluster()},
		{"hpc", cluster.HPCCluster()},
	} {
		for _, sv := range []int{0, DefaultStaleness, async.Unbounded} {
			cells = append(cells, localSweepCell{p.label + "/S=" + boundName(sv), p.preset, sv})
		}
	}
	return cells
}

// localSweepGrid runs async PageRank on in at every bound of
// localSweepBounds in every cell and returns sim_s, one row per bound.
func (s *Suite) localSweepGrid(in *Inputs, cells []localSweepCell) ([][]float64, error) {
	sims := make([][]float64, len(localSweepBounds))
	for i, q := range localSweepBounds {
		cfg := pagerank.DefaultConfig()
		cfg.MaxLocalIters = q
		for _, c := range cells {
			r, err := pagerank.RunAsync(cluster.New(c.preset), in.Subs, cfg, s.fixedBound(c.staleness))
			if err != nil {
				return nil, err
			}
			if !r.Stats.Converged {
				return nil, fmt.Errorf("harness: q=%d %s did not converge", q, c.label)
			}
			sims[i] = append(sims[i], r.Stats.Duration.Seconds())
		}
	}
	return sims, nil
}

// localSweepRatios returns, per bound, the geometric mean and the largest
// of its cells' sim_s over full local convergence's (row 0).
func localSweepRatios(sims [][]float64) (geo, worst []float64) {
	for _, row := range sims {
		logSum, w := 0.0, 0.0
		for c, v := range row {
			r := v / sims[0][c]
			logSum += math.Log(r)
			w = math.Max(w, r)
		}
		geo = append(geo, math.Exp(logSum/float64(len(row))))
		worst = append(worst, w)
	}
	return geo, worst
}

// chooseLocalSweeps applies the rule pagerank.AsyncLocalSweeps was chosen
// by: among the bounds whose worst cell is no slower than full local
// convergence, the one with the lowest geometric mean (full local
// convergence when none is).
func chooseLocalSweeps(geo, worst []float64) int {
	best := 0
	for i := 1; i < len(localSweepBounds); i++ {
		if worst[i] <= 1 && (best == 0 || geo[i] < geo[best]) {
			best = i
		}
	}
	return localSweepBounds[best]
}

func sweepBoundName(q int) string {
	if q == async.DefaultMaxSteps {
		return "full"
	}
	return fmt.Sprint(q)
}

// localSweepParts cuts the suite's Graph A into partitions of 4 375
// nodes, the benchmark's pagerank_* shape (Graph A ÷4 in 16), and at
// least two: 64/Scale of them. At the suite's own partition counts a
// partition is a few hundred nodes and costs less to sweep than to
// publish: on the EC2 and CluE presets every bound, full convergence
// included, lands within about 1.5 % of the others, either way.
func (s *Suite) localSweepParts() int { return max(2, 64/s.Scale) }

// FigureLocalSweeps is the evidence for pagerank.AsyncLocalSweeps at the
// suite's scale: async PageRank on Graph A in localSweepParts partitions
// with each bound of localSweepBounds on local sweeps per step, in every
// cell of four presets × S ∈ {0, DefaultStaleness, inf}. It writes the
// sim_s table, each bound's geometric mean and worst cell of sim_s over
// full local convergence's, and the bound the rule picks to w, and
// returns the two ratios as a figure. At -scale 2, 4 and 8 it is the
// grid the constant was chosen on (Graph A ÷2 in 32 parts, ÷4 in 16, ÷8
// in 8).
func (s *Suite) FigureLocalSweeps(w io.Writer) (*Figure, error) {
	in, err := graphInputs(s.GraphA(), s.localSweepParts())
	if err != nil {
		return nil, err
	}
	cells := localSweepCells()
	sims, err := s.localSweepGrid(in, cells)
	if err != nil {
		return nil, err
	}
	geo, worst := localSweepRatios(sims)
	fmt.Fprintf(w, "Local sweeps per async PageRank step: sim_s (Graph A, %d partitions)\n", len(in.Subs))
	fmt.Fprintf(w, "%-6s", "q")
	for _, c := range cells {
		fmt.Fprintf(w, " %13s", c.label)
	}
	fmt.Fprintf(w, " %8s %8s\n", "geomean", "worst")
	for i, row := range sims {
		fmt.Fprintf(w, "%-6s", sweepBoundName(localSweepBounds[i]))
		for _, v := range row {
			fmt.Fprintf(w, " %13.3f", v)
		}
		fmt.Fprintf(w, " %8.4f %8.4f\n", geo[i], worst[i])
	}
	fmt.Fprintf(w, "rule (lowest geomean, no cell slower than full): q=%s; pagerank.AsyncLocalSweeps=%d\n\n",
		sweepBoundName(chooseLocalSweeps(geo, worst)), pagerank.AsyncLocalSweeps)
	return &Figure{
		Title:  fmt.Sprintf("Local sweeps per async PageRank step: sim_s over full local convergence (Graph A, %d partitions, %d cells)", len(in.Subs), len(cells)),
		XLabel: "Sweeps q",
		YLabel: "sim_s ratio",
		X:      intsToFloats(localSweepBounds),
		XFmt:   func(v float64) string { return sweepBoundName(int(v)) },
		Series: []Series{{Label: "Geomean", Y: geo}, {Label: "Worst", Y: worst}},
	}, nil
}
