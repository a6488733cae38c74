package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The writers are hand-rolled rather than encoding/json or
// encoding/csv so the output is byte-deterministic by construction:
// fixed column/key order, floats via strconv.FormatFloat(v,'g',-1,64)
// (the shortest exact representation — identical floats render to
// identical bytes). asynctest's TestDifferential asserts DES and
// parallel runs write byte-identical files through these.

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

// WriteJSON writes the series as a single JSON document: the interval,
// the drop count, and the retained samples oldest-first. Key order is
// fixed; the document round-trips through ValidateSeries.
func (s *Series) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"interval\": %s,\n  \"dropped\": %d,\n  \"samples\": [",
		fmtF(float64(s.Interval())), s.Dropped())
	for i, smp := range s.Samples() {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, "\n    {\"tick\": %d, \"time\": %s, \"wall\": %s, \"residual\": %s, \"residual_sum\": %s, "+
			"\"steps\": %d, \"dsteps\": %d, \"publishes\": %d, \"dpublishes\": %d, "+
			"\"gate_wait\": %s, \"dgate_wait\": %s, \"store_versions\": %d, "+
			"\"bound_min\": %d, \"bound_max\": %d, \"bound_mean\": %s, \"lag_max\": %d, \"lag_hist\": [",
			smp.Tick, fmtF(float64(smp.Time)), fmtF(smp.Wall), fmtF(smp.Residual), fmtF(smp.ResidualSum),
			smp.Steps, smp.DeltaSteps, smp.Publishes, smp.DeltaPublishes,
			fmtF(float64(smp.GateWait)), fmtF(float64(smp.DeltaGateWait)), smp.StoreVersions,
			smp.BoundMin, smp.BoundMax, fmtF(smp.BoundMean), smp.LagMax)
		for j, c := range smp.LagHist {
			if j > 0 {
				fmt.Fprint(bw, ", ")
			}
			fmt.Fprintf(bw, "%d", c)
		}
		fmt.Fprintf(bw, "], \"queue_depth\": %d, \"steals\": %d}", smp.QueueDepth, smp.Steals)
	}
	fmt.Fprint(bw, "\n  ]\n}\n")
	return bw.Flush()
}

// jsonSeries/jsonSample mirror WriteJSON's document for validation.
// Reading back through encoding/json is fine — only writing must be
// byte-deterministic.
type jsonSeries struct {
	Interval *float64     `json:"interval"`
	Dropped  *uint64      `json:"dropped"`
	Samples  []jsonSample `json:"samples"`
}

type jsonSample struct {
	Tick     *int64   `json:"tick"`
	Time     *float64 `json:"time"`
	Residual *float64 `json:"residual"`
	Steps    *int64   `json:"steps"`
	LagHist  []int64  `json:"lag_hist"`
}

// ValidateSeries checks a series file written by WriteCSV or WriteJSON
// (autodetected) and returns the sample count: the header/keys must
// match the writer's schema, ticks must be strictly increasing,
// timestamps finite and non-decreasing, and cumulative step counts
// non-decreasing.
// cmd/tracecheck -series drives this in CI after the smoke runs.
func ValidateSeries(data []byte) (int, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return 0, fmt.Errorf("metrics: empty series file")
	}
	if trimmed[0] == '{' {
		return validateJSON(trimmed)
	}
	return validateCSV(trimmed)
}

func validateJSON(data []byte) (int, error) {
	var doc jsonSeries
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("metrics: invalid series JSON: %w", err)
	}
	if doc.Interval == nil || doc.Dropped == nil {
		return 0, fmt.Errorf("metrics: series JSON missing interval/dropped header")
	}
	if *doc.Interval <= 0 {
		return 0, fmt.Errorf("metrics: series interval %v not positive", *doc.Interval)
	}
	last := order{-1, -1, -1}
	for i, smp := range doc.Samples {
		if smp.Tick == nil || smp.Time == nil || smp.Residual == nil || smp.Steps == nil {
			return 0, fmt.Errorf("metrics: sample %d missing required keys", i)
		}
		if len(smp.LagHist) != LagBuckets {
			return 0, fmt.Errorf("metrics: sample %d has %d lag buckets, want %d", i, len(smp.LagHist), LagBuckets)
		}
		if err := last.next("sample", i, order{*smp.Tick, *smp.Time, *smp.Steps}); err != nil {
			return 0, err
		}
	}
	return len(doc.Samples), nil
}

// order is what each sample of a series must advance: a strictly
// increasing tick, a finite non-decreasing time and non-decreasing
// cumulative steps.
type order struct {
	tick  int64
	time  float64
	steps int64
}

// next checks sample i against the one before it, then takes its place.
// A NaN time must be refused here: every comparison with it is false, so
// it would pass and disarm the time check of the sample after it.
func (o *order) next(what string, i int, s order) error {
	switch {
	case math.IsNaN(s.time) || math.IsInf(s.time, 0):
		return fmt.Errorf("metrics: %s %d time %v not finite", what, i, s.time)
	case s.tick <= o.tick:
		return fmt.Errorf("metrics: %s %d tick %d not increasing (prev %d)", what, i, s.tick, o.tick)
	case s.time < o.time:
		return fmt.Errorf("metrics: %s %d time %v decreases (prev %v)", what, i, s.time, o.time)
	case s.steps < o.steps:
		return fmt.Errorf("metrics: %s %d cumulative steps %d decrease (prev %d)", what, i, s.steps, o.steps)
	}
	*o = s
	return nil
}

func validateCSV(data []byte) (int, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if lines[0] != csvHeader {
		return 0, fmt.Errorf("metrics: series CSV header mismatch: %q", lines[0])
	}
	last := order{-1, -1, -1}
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
		if err := last.next("row", i, order{tick, tm, steps}); err != nil {
			return 0, err
		}
	}
	return len(lines) - 1, nil
}
