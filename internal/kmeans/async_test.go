package kmeans

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/async"
	"repro/internal/async/asynctest"
)

func TestAsyncConvergesAndClusters(t *testing.T) {
	pts := smallCensus(t)
	cfg := DefaultConfig(0.01)
	res, err := RunAsync(asynctest.QuietCluster(), pts, 13, cfg, async.Options{Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("async did not converge")
	}
	if len(res.Centroids) != cfg.K {
		t.Fatalf("centroids %d, want %d", len(res.Centroids), cfg.K)
	}
	for c, cen := range res.Centroids {
		for d, v := range cen {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("centroid %d dim %d is %g", c, d, v)
			}
		}
	}
	// Clustering must beat the trivial single-centroid solution clearly.
	mean := make([]float64, len(pts[0]))
	for _, p := range pts {
		for d, v := range p {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(len(pts))
	}
	if got, trivial := SSE(pts, res.Centroids), SSE(pts, [][]float64{mean}); got > trivial*0.6 {
		t.Fatalf("clustering quality poor: sse %g vs trivial %g", got, trivial)
	}
}

// TestAsyncFixedPointUnderAnyDelivery: under every bound and policy and
// delivery schedule, K-Means settles within 10 % above the SSE of the
// in-order lockstep run; below is allowed, since another schedule may
// reach a better local optimum. A step runs one local iteration, so
// there is no sweep cap to vary, and the adaptive policies are left to
// the other workloads' tables to keep this one's cost down.
func TestAsyncFixedPointUnderAnyDelivery(t *testing.T) {
	pts, err := GenerateCensus(DefaultCensusConfig().Scaled(200)) // 1000 points
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	cfg := DefaultConfig(0.01)
	lockstep, err := RunAsync(asynctest.QuietCluster(), pts, parts, cfg, async.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := SSE(pts, lockstep.Centroids)
	for _, row := range asynctest.DeliveryRows(0) {
		if row.Opt.Adapt != nil {
			continue
		}
		t.Run(row.String(), func(t *testing.T) {
			w := newAsyncWorkload(pts, parts, cfg, len(pts[0]))
			res := w.result(asynctest.RunDelayed[[]float64](t, w, row))
			if got := SSE(pts, res.Centroids); got > 1.10*base {
				t.Fatalf("SSE %g, %.3f of the lockstep run's", got, got/base)
			}
		})
	}
}

func TestAsyncDeterministicReplay(t *testing.T) {
	pts := smallCensus(t)
	run := func() *AsyncResult {
		res, err := RunAsync(asynctest.QuietCluster(), pts, 9, DefaultConfig(0.01), async.Options{Staleness: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Steps != b.Stats.Steps || a.Stats.Duration != b.Stats.Duration {
		t.Fatalf("replay diverged: %d/%v vs %d/%v",
			a.Stats.Steps, a.Stats.Duration, b.Stats.Steps, b.Stats.Duration)
	}
	for c := range a.Centroids {
		for d := range a.Centroids[c] {
			if a.Centroids[c][d] != b.Centroids[c][d] {
				t.Fatalf("centroid %d dim %d diverged", c, d)
			}
		}
	}
}

func TestAsyncFasterThanGeneral(t *testing.T) {
	pts := smallCensus(t)
	gen, err := Run(engine(), pts, 13, DefaultConfig(0.01), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(asynctest.QuietCluster(), pts, 13, DefaultConfig(0.01), async.Options{Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration >= gen.Stats.Duration {
		t.Fatalf("async %v not faster than general %v", res.Stats.Duration, gen.Stats.Duration)
	}
}

// undoRig opens the adapter to asynctest.CheckUndo: the swap twins and
// the fold scratch get poisoned.
func undoRig(t *testing.T) (func() asynctest.UndoWorkload[[]float64], func(asynctest.UndoWorkload[[]float64], int)) {
	pts := smallCensus(t)
	fresh := func() asynctest.UndoWorkload[[]float64] {
		return newAsyncWorkload(pts, 5, DefaultConfig(0.01), len(pts[0]))
	}
	return fresh, func(w asynctest.UndoWorkload[[]float64], p int) {
		st := w.(*asyncWorkload).states[p]
		for _, scratch := range [][]float64{st.stepAccum, st.nextCentroids, st.foldSum} {
			for i := range scratch {
				scratch[i] = math.NaN()
			}
		}
	}
}

// TestUndoRestoresStep: a step on stale snapshots, undone, leaves the
// partition exactly where a lone canonical step finds it.
func TestUndoRestoresStep(t *testing.T) {
	fresh, poison := undoRig(t)
	asynctest.CheckUndo(t, fresh, poison, false)
}

// TestUndoLeavesCheckpointIntact: undo keeps out of the checkpoint's
// memory, which a second Checkpoint caller would overwrite.
func TestUndoLeavesCheckpointIntact(t *testing.T) {
	fresh, poison := undoRig(t)
	asynctest.CheckUndo(t, fresh, poison, true)
}

// TestAsyncFlatAccumGoldens pins the flat-accumulator adapter bit for
// bit against goldens recorded from the pre-flat ([]Accum / [][]float64)
// adapter on the same census and cluster: every RunStats figure —
// duration and gate-wait time compared by their float64 bit patterns —
// and an FNV-64a hash over the converged centroids' Float64bits, on
// both executors. Any arithmetic reordering in Step (fold order, early
// exit in the nearest-centroid scan, movement max) breaks this test.
func TestAsyncFlatAccumGoldens(t *testing.T) {
	pts := smallCensus(t)
	for _, tc := range []struct {
		parts, stal  int
		ex           async.Executor
		steps, pubs  int64
		pushedBytes  int64
		durBits      uint64
		gateWaits    int64
		gwtBits      uint64
		lead         int
		osc          bool
		centroidHash uint64
	}{
		{9, 0, async.DES, 73, 39, 349440, 0x402a3e7ee8f17643, 33, 0x3fe1b76bc68c0370, 0, false, 0x7287191eccec6f88},
		{9, 2, async.DES, 113, 55, 492800, 0x402a67264394b74c, 2, 0x3fc4f43024e1be80, 2, false, 0x5b689400ea6b444c},
		{9, async.Unbounded, async.DES, 115, 56, 501760, 0x402a51017dd9e3ba, 0, 0x0, 4, false, 0x7aeb16aba1a586e9},
		{13, 4, async.DES, 141, 61, 546560, 0x402a0b9be5313ccb, 0, 0x0, 2, false, 0x2c9cfd98efb7cd76},
		{9, 2, async.Parallel, 113, 55, 492800, 0x402a67264394b74c, 2, 0x3fc4f43024e1be80, 2, false, 0x5b689400ea6b444c},
		{13, 4, async.Parallel, 141, 61, 546560, 0x402a0b9be5313ccb, 0, 0x0, 2, false, 0x2c9cfd98efb7cd76},
	} {
		t.Run(fmt.Sprintf("parts=%d/S=%d/%s", tc.parts, tc.stal, tc.ex), func(t *testing.T) {
			res, err := RunAsync(asynctest.QuietCluster(), pts, tc.parts, DefaultConfig(0.01),
				async.Options{Staleness: tc.stal, Executor: tc.ex})
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if s.Steps != tc.steps || s.Publishes != tc.pubs || s.PushedBytes != tc.pushedBytes {
				t.Fatalf("steps/pubs/bytes = %d/%d/%d, want %d/%d/%d",
					s.Steps, s.Publishes, s.PushedBytes, tc.steps, tc.pubs, tc.pushedBytes)
			}
			if bits := math.Float64bits(float64(s.Duration)); bits != tc.durBits {
				t.Fatalf("duration bits %#x (%v), want %#x", bits, s.Duration, tc.durBits)
			}
			if s.GateWaits != tc.gateWaits {
				t.Fatalf("gate waits %d, want %d", s.GateWaits, tc.gateWaits)
			}
			if bits := math.Float64bits(float64(s.GateWaitTime)); bits != tc.gwtBits {
				t.Fatalf("gate-wait-time bits %#x (%v), want %#x", bits, s.GateWaitTime, tc.gwtBits)
			}
			if int(s.MaxLead) != tc.lead {
				t.Fatalf("max lead %d, want %d", s.MaxLead, tc.lead)
			}
			if res.OscillationStop != tc.osc {
				t.Fatalf("oscillation stop %v, want %v", res.OscillationStop, tc.osc)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, cen := range res.Centroids {
				for _, v := range cen {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			if got := h.Sum64(); got != tc.centroidHash {
				t.Fatalf("centroid hash %#x, want %#x", got, tc.centroidHash)
			}
		})
	}
}

// TestAsyncFlatStepAllocFree drives one partition's Step to its local
// fixed point under constant neighbor snapshots and asserts the
// steady-state step — fold, movement scan, full assignment pass, change
// detection — allocates nothing: all scratch is partition-owned and
// reused, and a step that neither publishes nor extends the oscillation
// history touches no heap.
func TestAsyncFlatStepAllocFree(t *testing.T) {
	pts := smallCensus(t)
	cfg := DefaultConfig(0.01)
	w := newAsyncWorkload(pts, 4, cfg, len(pts[0]))
	inputs := make([]async.Snapshot[[]float64], 0, len(w.Neighbors(0)))
	for _, q := range w.Neighbors(0) {
		data, _ := w.Init(q)
		inputs = append(inputs, async.Snapshot[[]float64]{Part: q, Data: data})
	}
	step := 0
	for ; step < 1000; step++ {
		out := w.Step(0, step, inputs)
		if !out.Publish && out.Quiescent {
			break
		}
	}
	if step == 1000 {
		t.Fatal("partition 0 did not reach a local fixed point")
	}
	allocs := testing.AllocsPerRun(10, func() {
		step++
		w.Step(0, step, inputs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v allocs/run, want 0", allocs)
	}
}

func TestAsyncValidation(t *testing.T) {
	for _, tc := range badInputs(t) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunAsync(asynctest.QuietCluster(), tc.points, tc.parts, tc.cfg, async.Options{}); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}
