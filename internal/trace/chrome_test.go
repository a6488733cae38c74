package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite the Chrome-exporter golden files")

// syntheticEvents is a hand-built stream covering every event kind in
// both time domains. Synthetic rather than engine-driven so the
// goldens pin the exporter's formatting, not the engine's trajectory.
func syntheticEvents() []Event {
	mk := func(k Kind, part, step int, vt, wall float64, a1, a2 int64, dur float64) Event {
		return Event{Kind: k, Part: int32(part), Step: int32(step),
			Vt: simtime.Duration(vt), Wall: simtime.Duration(wall),
			Arg1: a1, Arg2: a2, Dur: simtime.Duration(dur)}
	}
	return []Event{
		mk(KindStepStart, 0, 0, 0.10, 0.011, 0, 0, 0),
		mk(KindStepEnd, 0, 0, 0.35, 0.024, 0, 0, 0.25),
		mk(KindPublish, 0, 0, 0.35, 0.024, 1, 4096, 0.005),
		mk(KindGateBegin, 1, 0, 0.12, 0.013, 0, 1, 0),
		mk(KindGateRelease, 1, 0, 0.36, 0.025, 0, 0, 0),
		mk(KindSpecDispatch, 1, 1, 0.40, 0.026, 2, 0, 0),
		mk(KindSpecCommit, 1, 1, 0.55, 0.031, 0, 0, 0),
		mk(KindSpecInvalidate, 2, 3, 0.60, 0.033, 0, 0, 0),
		mk(KindCrash, 2, 3, 0.61, 0.034, 0, 0, 0),
		mk(KindRecovery, 2, 3, 0.80, 0.041, 2, 0, 0.15),
		mk(KindCheckpoint, 0, 1, 0.90, 0.044, 2048, 0, 0.02),
		mk(KindAdaptBound, 1, 2, 0.95, 0.046, 3, 0, 0),
		mk(KindSteal, 2, -1, 0.0, 0.047, 1, 0, 0),
		// A second step on partition 1 whose start never closes: the
		// exporter must drop the unpaired open span, not emit garbage.
		mk(KindStepStart, 1, 2, 0.97, 0.048, 0, 0, 0),
	}
}

// TestWriteChromeGolden pins the exporter's byte-exact output in both
// time domains. Regenerate with `go test ./internal/trace/ -update`
// after an intentional format change.
func TestWriteChromeGolden(t *testing.T) {
	for _, tc := range []struct {
		domain Domain
		golden string
	}{
		{Virtual, "chrome_virtual.golden"},
		{Wall, "chrome_wall.golden"},
	} {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, syntheticEvents(), tc.domain, 3); err != nil {
			t.Fatalf("%v: WriteChrome: %v", tc.domain, err)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatalf("update %s: %v", path, err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden: %v (run with -update to create)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%v-domain output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
				tc.domain, path, buf.String(), want)
		}
	}
}

// TestWriteChromeDeterministic pins byte-identical output across
// repeated exports of the same stream (stable event ordering — the
// property the goldens rely on).
func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, syntheticEvents(), Virtual, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, syntheticEvents(), Virtual, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same stream differ")
	}
}

// TestWriteChromeValidates pins exporter output against the same
// schema check the CI smoke job runs on CLI-emitted files.
func TestWriteChromeValidates(t *testing.T) {
	for _, d := range []Domain{Virtual, Wall} {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, syntheticEvents(), d, 0); err != nil {
			t.Fatal(err)
		}
		n, err := ValidateChrome(buf.Bytes())
		if err != nil {
			t.Fatalf("%v-domain export fails its own schema check: %v\n%s", d, err, buf.String())
		}
		if n == 0 {
			t.Fatalf("%v-domain export validated to zero events", d)
		}
	}
}

// TestValidateChromeRejects pins the checker's teeth: malformed
// documents must fail, not pass vacuously.
func TestValidateChromeRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"not-json":   `{"traceEvents":[`,
		"no-events":  `{"displayTimeUnit":"ms","otherData":{"domain":"virtual"},"traceEvents":[]}`,
		"bad-unit":   `{"displayTimeUnit":"ns","otherData":{"domain":"virtual"},"traceEvents":[{"name":"x","ph":"M","pid":0}]}`,
		"bad-domain": `{"displayTimeUnit":"ms","otherData":{"domain":"lunar"},"traceEvents":[{"name":"x","ph":"M","pid":0}]}`,
		"bad-phase":  `{"displayTimeUnit":"ms","otherData":{"domain":"virtual"},"traceEvents":[{"name":"x","ph":"Z","pid":0}]}`,
		"no-ts":      `{"displayTimeUnit":"ms","otherData":{"domain":"virtual"},"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"dur":1}]}`,
		"neg-dur":    `{"displayTimeUnit":"ms","otherData":{"domain":"virtual"},"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1,"dur":-1}]}`,
	} {
		if _, err := ValidateChrome([]byte(doc)); err == nil {
			t.Errorf("%s: ValidateChrome accepted a malformed document", name)
		}
	}
}

// FuzzValidateChrome: the validator never panics, and a document it
// accepts holds that many events, each with a known phase and no negative
// timestamp or duration.
func FuzzValidateChrome(f *testing.F) {
	for _, name := range []string{"chrome_virtual.golden", "chrome_wall.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ValidateChrome(data)
		if err != nil {
			return
		}
		var doc chromeDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.TraceEvents) != n || n == 0 {
			t.Fatalf("accepted %d events, the document holds %d", n, len(doc.TraceEvents))
		}
		for i, e := range doc.TraceEvents {
			if !strings.Contains("MXiC", e.Ph) || len(e.Ph) != 1 ||
				e.Ts != nil && e.Ph != "M" && *e.Ts < 0 || e.Dur != nil && e.Ph == "X" && *e.Dur < 0 {
				t.Fatalf("accepted event %d: %+v", i, e)
			}
		}
	})
}

// TestProfileAggregation pins the aggregation pass over the synthetic
// stream: share sums, publish/spec counters, and blocking-edge
// attribution.
func TestProfileAggregation(t *testing.T) {
	pr := NewProfile(syntheticEvents(), 3)
	if pr.Events != len(syntheticEvents()) || pr.Dropped != 3 {
		t.Fatalf("Events=%d Dropped=%d", pr.Events, pr.Dropped)
	}
	if len(pr.Parts) != 3 {
		t.Fatalf("got %d partitions, want 3", len(pr.Parts))
	}
	p0, p1, p2 := pr.Parts[0], pr.Parts[1], pr.Parts[2]
	if p0.Steps != 1 || float64(p0.Compute) != 0.25 || p0.Publishes != 1 {
		t.Fatalf("p0 wrong: %+v", p0)
	}
	if float64(p0.Checkpoint) != 0.02 {
		t.Fatalf("p0 checkpoint share wrong: %+v", p0)
	}
	if got := float64(p1.GateWait); got < 0.2399 || got > 0.2401 {
		t.Fatalf("p1 gate wait %v, want 0.24", p1.GateWait)
	}
	if p1.Speculated != 1 {
		t.Fatalf("p1 spec commits wrong: %+v", p1)
	}
	if p2.Invalidated != 1 || float64(p2.Recovery) != 0.15 || p2.Steals != 1 {
		t.Fatalf("p2 wrong: %+v", p2)
	}
	if len(pr.Edges) != 1 || pr.Edges[0].Waiter != 1 || pr.Edges[0].Blocker != 0 || pr.Edges[0].Count != 1 {
		t.Fatalf("blocking edges wrong: %+v", pr.Edges)
	}
	if pr.Span != simtime.Duration(0.97) {
		t.Fatalf("span %v, want 0.97", pr.Span)
	}
	// Stall closes the accounting identity for every partition.
	for _, pp := range pr.Parts {
		if pp.Stall < 0 {
			t.Fatalf("negative stall: %+v", pp)
		}
	}
	// The table renderer mentions every partition and the top edge.
	out := pr.String()
	for _, want := range []string{"trace profile", "p1 <- p0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile table missing %q:\n%s", want, out)
		}
	}
}
