package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison, from the point of view of the second file.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// verdict compares one end-to-end metric of two runs. The metric is
// unresolved when the two runs' lo-hi ranges (the estimator on each half
// of a run) overlap by more than the bound, as a share of the first
// value: the number then moves more within one run than the difference
// the bound is meant to catch. Otherwise the signed change decides.
func verdict(def metricDef, a, b metricValue) (delta float64, v string) {
	delta = (b.Value - a.Value) / a.Value
	overlap := math.Min(a.Hi, b.Hi) - math.Max(a.Lo, b.Lo)
	if overlap > def.Bound*math.Abs(a.Value) {
		return delta, verdictUnresolved
	}
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > def.Bound:
		return delta, verdictWorse
	case worse < -def.Bound:
		return delta, verdictBetter
	}
	return delta, verdictWithin
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced indexes a file's end-to-end results by workload.
func (f *resultsFile) untraced() map[string]workloadResult {
	byName := map[string]workloadResult{}
	for _, r := range f.Results {
		if r.Pass == passUntraced {
			byName[r.Workload] = r
		}
	}
	return byName
}

// complete rejects a result that cannot be compared: a failed pass is
// still written by -out, with no metrics, and its zeros must not read as
// within-bound.
func complete(path string, r workloadResult) error {
	if r.Failed > 0 {
		return fmt.Errorf("%s: %s failed %d of %d: %s", path, r.Workload, r.Failed, r.Attempted, r.Error)
	}
	for _, def := range endToEnd {
		if _, ok := r.Metrics[def.Name]; !ok {
			return fmt.Errorf("%s: %s has no %s", path, r.Workload, def.Name)
		}
	}
	return nil
}

// compareFiles prints, for every workload the two files share, one row
// of end-to-end metrics: both values, the change, the bound and the
// verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  rev %s  seed %d  %s\n", pathA, fa.Manifest.GitRevision, fa.Manifest.Seed, fa.Manifest.Start)
	fmt.Fprintf(w, "B: %s  rev %s  seed %d  %s\n", pathB, fb.Manifest.GitRevision, fb.Manifest.Seed, fb.Manifest.Start)
	a, b := fa.untraced(), fb.untraced()
	rows := 0
	for _, name := range allWorkloads {
		ra, okA := a[name]
		rb, okB := b[name]
		if !okA || !okB {
			continue
		}
		rows++
		if err := complete(pathA, ra); err != nil {
			return err
		}
		if err := complete(pathB, rb); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:", name)
		for _, def := range endToEnd {
			va, vb := ra.Metrics[def.Name], rb.Metrics[def.Name]
			delta, v := verdict(def, va, vb)
			fmt.Fprintf(w, "  %s %.6g -> %.6g %s (%+.2f%%, bound %.0f%%) %s;",
				def.Name, va.Value, vb.Value, def.Unit, 100*delta, 100*def.Bound, v)
		}
		fmt.Fprintln(w)
	}
	if rows == 0 {
		return fmt.Errorf("%s and %s share no workload with end-to-end results", pathA, pathB)
	}
	return nil
}
