package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The writer is hand-rolled rather than encoding/csv so the output is
// byte-deterministic by construction: fixed column order, floats via
// strconv.FormatFloat(v,'g',-1,64) (the shortest exact representation —
// identical floats render to identical bytes). asynctest's
// TestDifferential asserts DES and parallel runs write byte-identical
// files through it.

// csvHeader is the fixed CSV column order. ValidateSeries rejects
// files whose header drifted from the writer's.
const csvHeader = "tick,time,wall,residual,residual_sum,steps,dsteps,publishes,dpublishes," +
	"gate_wait,dgate_wait,store_versions,bound_min,bound_max,bound_mean,lag_max," +
	"lag_0,lag_1,lag_2,lag_3,lag_4_7,lag_8_15,lag_16_31,lag_32p,queue_depth,steals"

// csvFields is the number of columns in csvHeader.
const csvFields = 10 + LagBuckets + 8

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV writes the retained samples oldest-first as CSV, one header
// line plus one line per sample.
func (s *Series) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, csvHeader)
	for _, smp := range s.Samples() {
		fmt.Fprintf(bw, "%d,%s,%s,%s,%s,%d,%d,%d,%d,%s,%s,%d,%d,%d,%s,%d",
			smp.Tick, fmtF(float64(smp.Time)), fmtF(smp.Wall),
			fmtF(smp.Residual), fmtF(smp.ResidualSum),
			smp.Steps, smp.DeltaSteps, smp.Publishes, smp.DeltaPublishes,
			fmtF(float64(smp.GateWait)), fmtF(float64(smp.DeltaGateWait)),
			smp.StoreVersions, smp.BoundMin, smp.BoundMax, fmtF(smp.BoundMean), smp.LagMax)
		for _, c := range smp.LagHist {
			fmt.Fprintf(bw, ",%d", c)
		}
		fmt.Fprintf(bw, ",%d,%d\n", smp.QueueDepth, smp.Steals)
	}
	return bw.Flush()
}

// ValidateSeries checks a series file written by WriteCSV and returns
// the sample count: the header must match the writer's schema, ticks
// must be strictly increasing, timestamps finite and non-decreasing,
// and cumulative step counts non-decreasing.
// cmd/tracecheck -series drives this in CI after the smoke runs.
func ValidateSeries(data []byte) (int, error) {
	data = bytes.TrimLeft(data, " \t\r\n")
	if len(data) == 0 {
		return 0, fmt.Errorf("metrics: empty series file")
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if lines[0] != csvHeader {
		return 0, fmt.Errorf("metrics: series CSV header mismatch: %q", lines[0])
	}
	prevTick, prevTime, prevSteps := int64(-1), -1.0, int64(-1)
	for i, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != csvFields {
			return 0, fmt.Errorf("metrics: row %d has %d columns, want %d", i, len(cols), csvFields)
		}
		tick, err := strconv.ParseInt(cols[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: row %d tick: %w", i, err)
		}
		tm, err := strconv.ParseFloat(cols[1], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: row %d time: %w", i, err)
		}
		steps, err := strconv.ParseInt(cols[5], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: row %d steps: %w", i, err)
		}
		// A NaN time must be refused first: every comparison with it is
		// false, so it would pass and disarm the time check of the next row.
		switch {
		case math.IsNaN(tm) || math.IsInf(tm, 0):
			return 0, fmt.Errorf("metrics: row %d time %v not finite", i, tm)
		case tick <= prevTick:
			return 0, fmt.Errorf("metrics: row %d tick %d not increasing (prev %d)", i, tick, prevTick)
		case tm < prevTime:
			return 0, fmt.Errorf("metrics: row %d time %v decreases (prev %v)", i, tm, prevTime)
		case steps < prevSteps:
			return 0, fmt.Errorf("metrics: row %d cumulative steps %d decrease (prev %d)", i, steps, prevSteps)
		}
		prevTick, prevTime, prevSteps = tick, tm, steps
	}
	return len(lines) - 1, nil
}
