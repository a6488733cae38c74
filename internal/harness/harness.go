// Package harness runs the paper's experiments end to end and renders
// their tables and figures. Two tables say what there is: the workload
// table (workloads.go) states each of PageRank, SSSP, K-Means and
// connected components once — how to build its inputs at a suite's scale
// and how to run them general, eager or asynchronously on a cluster
// preset — and the experiment registry (registry.go) lists every
// experiment once: the paper's Tables I-II, Figures 2-9 and §VI
// scalability remark, and beyond the paper the third scheduling mode's
// figures (fully-asynchronous bounded-staleness execution,
// internal/async) and the end-to-end `run`. cmd/asyncmr, the root
// benchmarks and the tests all go through the two.
//
// Figures are emitted as aligned text tables plus a log-scale ASCII chart
// (the original figures are log-log gnuplot charts). A Scale factor
// shrinks the workloads so the full suite runs in seconds during tests
// and benches; Scale=1 reproduces paper-size inputs. See EXPERIMENTS.md
// for scaling caveats and expected shapes, and DESIGN.md for the design
// choices the ablation benches pin down.
package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one curve of an experiment: a labelled Y per swept X.
type Series struct {
	Label string
	Y     []float64
}

// Figure is a rendered experiment: swept X values and one or more
// series, with axis labels matching the paper's.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	XFmt   func(float64) string
	Series []Series
	// Comparable says the first two series measure the same quantity in
	// the same unit (general vs eager), so their ratio is a speedup.
	// Render prints the SpeedupSummary line for such figures only.
	Comparable bool
}

// SpeedupSummary returns the geometric-mean and max ratio of the first
// series over the second (general over eager), the numbers the paper
// quotes as "on an average, we observe 8x improvement".
func (f *Figure) SpeedupSummary() (geo, max float64) {
	if len(f.Series) < 2 {
		return 0, 0
	}
	g, e := f.Series[0].Y, f.Series[1].Y
	prod, n := 1.0, 0
	for i := range g {
		if i < len(e) && e[i] > 0 && g[i] > 0 {
			r := g[i] / e[i]
			prod *= r
			n++
			if r > max {
				max = r
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Pow(prod, 1/float64(n)), max
}

// Render writes the figure as an aligned table followed by a log-scale
// ASCII chart.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", f.Title)
	fmt.Fprintf(w, "%s\n", strings.Repeat("=", len(f.Title)))
	xfmt := f.XFmt
	if xfmt == nil {
		xfmt = func(x float64) string { return trimFloat(x) }
	}
	// Header.
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%16s", s.Label)
	}
	fmt.Fprintln(w)
	for i, x := range f.X {
		fmt.Fprintf(w, "%-14s", xfmt(x))
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(w, "%16s", trimFloat(s.Y[i]))
			} else {
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	if geo, max := f.SpeedupSummary(); f.Comparable && geo > 0 {
		fmt.Fprintf(w, "%s/%s ratio: geomean %.2fx, max %.2fx\n",
			f.Series[0].Label, f.Series[1].Label, geo, max)
	}
	f.renderChart(w)
	fmt.Fprintln(w)
}

// renderChart draws a crude log-y ASCII chart, one symbol per series.
func (f *Figure) renderChart(w io.Writer) {
	const height = 12
	symbols := []byte{'E', 'G', '*', '+', 'o'}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, y := range s.Y {
			if y > 0 {
				ymin = math.Min(ymin, y)
				ymax = math.Max(ymax, y)
			}
		}
	}
	if math.IsInf(ymin, 1) || ymin == ymax {
		return
	}
	logMin, logMax := math.Log(ymin), math.Log(ymax)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(f.X)*3+2))
	}
	for si, s := range f.Series {
		sym := symbols[si%len(symbols)]
		for i, y := range s.Y {
			if i >= len(f.X) || y <= 0 {
				continue
			}
			row := int((math.Log(y) - logMin) / (logMax - logMin) * float64(height-1))
			row = height - 1 - row
			col := i*3 + 2
			if grid[row][col] == ' ' {
				grid[row][col] = sym
			} else {
				grid[row][col+1] = sym // overlap: nudge right
			}
		}
	}
	fmt.Fprintf(w, "  log-scale: ")
	for si, s := range f.Series {
		fmt.Fprintf(w, "%c=%s ", symbols[si%len(symbols)], s.Label)
	}
	fmt.Fprintln(w)
	for r, row := range grid {
		lab := "          "
		switch r {
		case 0:
			lab = fmt.Sprintf("%9s ", trimFloat(ymax))
		case height - 1:
			lab = fmt.Sprintf("%9s ", trimFloat(ymin))
		}
		fmt.Fprintf(w, "%s|%s\n", lab, string(row))
	}
}

// trimFloat formats a float compactly: integers without decimals, small
// values with enough precision to distinguish.
func trimFloat(x float64) string {
	ax := math.Abs(x)
	switch {
	case x == math.Trunc(x) && ax < 1e15:
		return fmt.Sprintf("%.0f", x)
	case ax >= 100:
		return fmt.Sprintf("%.0f", x)
	case ax >= 1:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.4g", x)
	}
}
