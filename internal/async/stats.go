package async

// RunStats rendering: the one full-fidelity textual and JSON view of a
// run, used by `asyncmr run` instead of hand-formatted subsets. Every
// exported field appears in both renderings — pinned by a
// field-coverage test mirroring the asynctest parity harness's
// field-drift test, so a counter added to RunStats cannot silently
// stay invisible.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// String renders every RunStats field as a compact multi-line block.
// PerWorkerSteps is summarized (count/min/mean/max) — the full vector
// is available via WriteJSON.
func (s *RunStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "RunStats{\n")
	fmt.Fprintf(&sb, "  Steps: %d  MeanSteps: %.2f  Converged: %v  Duration: %v\n",
		s.Steps, s.MeanSteps, s.Converged, s.Duration)
	fmt.Fprintf(&sb, "  Publishes: %d  PushedBytes: %d  Failures: %d\n",
		s.Publishes, s.PushedBytes, s.Failures)
	fmt.Fprintf(&sb, "  GateWaits: %d  GateWaitTime: %v  MaxLead: %d\n",
		s.GateWaits, s.GateWaitTime, s.MaxLead)
	n, min, max := len(s.PerWorkerSteps), 0, 0
	if n > 0 {
		min = s.PerWorkerSteps[0]
		for _, v := range s.PerWorkerSteps {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	fmt.Fprintf(&sb, "  PerWorkerSteps: n=%d min=%d max=%d\n", n, min, max)
	fmt.Fprintf(&sb, "  Crashes: %d  Recoveries: %d  LostSteps: %d  Checkpoints: %d\n",
		s.Crashes, s.Recoveries, s.LostSteps, s.Checkpoints)
	fmt.Fprintf(&sb, "  CheckpointTime: %v  RecoveryTime: %v\n",
		s.CheckpointTime, s.RecoveryTime)
	fmt.Fprintf(&sb, "  AdaptRaises: %d  AdaptCuts: %d  StalenessMean: %.3f  StalenessMax: %d\n",
		s.AdaptRaises, s.AdaptCuts, s.StalenessMean, s.StalenessMax)
	fmt.Fprintf(&sb, "  Speculated: %d  SpecDiscarded: %d  SpecDepth: %d  LiveComputeTime: %v  LiveSteals: %d\n",
		s.Speculated, s.SpecDiscarded, s.SpecDepth, s.LiveComputeTime, s.LiveSteals)
	fmt.Fprintf(&sb, "  LiveWakes: %d  LiveWakeLateTime: %v\n",
		s.LiveWakes, s.LiveWakeLateTime)
	fmt.Fprintf(&sb, "  SeriesTicks: %d  SeriesSamples: %d\n",
		s.SeriesTicks, s.SeriesSamples)
	fmt.Fprintf(&sb, "}")
	return sb.String()
}

// WriteJSON writes the stats as one indented JSON object. Every
// exported field marshals under its Go name (RunStats carries no json
// tags by design: the reflection-based parity and coverage tests key
// on field names, and so does the emitted JSON).
func (s *RunStats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
