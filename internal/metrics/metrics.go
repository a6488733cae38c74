// Package metrics is the deterministic time-series layer of the
// asynchronous runtime: a preallocated ring of fixed-interval samples
// filled by virtual-time sampler ticks riding the scheduler's event
// heap (internal/trace records individual events; this package records
// the curves — residual vs time, staleness occupancy, gate-wait
// accumulation — that make the paper's convergence claims visible).
//
// The contract mirrors the trace layer's exactly:
//
//   - Inert: attaching a Series to a run must not change RunStats or
//     final workload state on any executor (asynctest's
//     TestDifferential enforces bit-identity). Sampler ticks ride the event heap without
//     touching the step-event accounting, so they never reorder or
//     retime engine events.
//   - Deterministic: on the virtual-time executors (DES and parallel)
//     the same run records byte-identical series — same tick
//     timestamps, same sampled values — because every sampled quantity
//     is read at canonical event order. Only the live executor stamps
//     wall-clock fields, under the same waiver as trace.StartWall.
//   - Preallocated: NewSeries allocates the whole ring up front;
//     steady-state Record calls allocate nothing. When the run outlives
//     the ring, the oldest samples are dropped (Dropped counts them) —
//     the convergence tail is the interesting part.
//
// Series methods take an internal mutex: the live executor records from
// its timer goroutine, not from the goroutine that started the run and
// reads the series.
//
//async:deterministic
package metrics

import (
	"sync"

	"repro/internal/simtime"
)

// LagBuckets is the number of staleness-occupancy histogram buckets in
// a Sample: observed version lags 0, 1, 2, 3, 4-7, 8-15, 16-31, >=32.
// The occupancy histogram answers what the per-worker bound S(w) alone
// cannot: how much of the allowed staleness runs actually consume.
const LagBuckets = 8

// LagBucket maps an observed version lag to its occupancy bucket index.
// Negative lags (an input read ahead of the reader's consumption
// cursor never happens; defensive) clamp to bucket 0.
func LagBucket(lag int) int {
	switch {
	case lag <= 0:
		return 0
	case lag <= 3:
		return lag
	case lag <= 7:
		return 4
	case lag <= 15:
		return 5
	case lag <= 31:
		return 6
	default:
		return 7
	}
}

// Sample is one fixed-interval observation of a running engine. The
// struct is flat and pointer-free so the ring is one allocation.
//
// Cumulative fields count since the start of the run; Delta fields
// count since the previous sample (the first sample's deltas equal its
// cumulatives). On the virtual-time executors Wall, QueueDepth and
// Steals are always zero: they exist only for the live executor, whose
// sampler is a real timer over real queues.
type Sample struct {
	// Tick is the sample index: 0 is the run-start sample, interior
	// samples follow the fixed grid, and the final sample is recorded
	// at the run's end regardless of grid alignment.
	Tick int64
	// Time is the sample's virtual time (live executor: measured
	// elapsed seconds — its clock IS the wall clock).
	Time simtime.Duration
	// Wall is the live executor's elapsed wall-clock seconds at the
	// moment the sampler actually fired (recorded, never consulted);
	// zero on DES/parallel.
	Wall float64
	// Residual is the maximum per-partition workload residual (rank
	// delta, centroid movement, unsettled fraction — see
	// async.Progressive), or -1 when the workload does not implement
	// Progressive.
	Residual float64
	// ResidualSum is the sum of per-partition residuals (0 when the
	// workload is not Progressive).
	ResidualSum float64

	Steps          int64
	DeltaSteps     int64
	Publishes      int64
	DeltaPublishes int64

	// GateWait is the cumulative staleness-gate wait time.
	GateWait      simtime.Duration
	DeltaGateWait simtime.Duration

	// StoreVersions is the total number of published versions across
	// all partitions (version 0s excluded: it counts publications).
	StoreVersions int64

	// BoundMin/BoundMax/BoundMean summarize the per-worker effective
	// staleness bounds S(w); negative values mean free-running
	// (async.Unbounded).
	BoundMin  int
	BoundMax  int
	BoundMean float64

	// LagMax is the largest observed input lag (in versions) across
	// every worker x input pair; LagHist is the occupancy histogram of
	// those observations (see LagBucket).
	LagMax  int
	LagHist [LagBuckets]int64

	// QueueDepth is the pool's queued task count and Steals the
	// migrations so far (RunStats.LiveSteals; live executor only).
	QueueDepth int
	Steals     int64
}

// DefaultCapacity is the default sample-ring size: generous for any
// reasonable tick interval while staying a bounded allocation.
const DefaultCapacity = 1 << 12

// Series is a preallocated ring of samples plus the fixed tick
// interval that produced them. The zero value is not usable; call
// NewSeries. A nil *Series is a valid "sampling off" value everywhere
// (Record is a no-op and the accessors return zero values), mirroring
// trace.Recorder.
type Series struct {
	mu       sync.Mutex
	interval simtime.Duration
	buf      []Sample
	n        uint64 // total samples ever recorded
}

// NewSeries returns a series with the given tick interval and ring
// capacity. A non-positive interval defaults to one simulated second; a
// non-positive capacity defaults to DefaultCapacity.
func NewSeries(interval simtime.Duration, capacity int) *Series {
	if interval <= 0 {
		interval = simtime.Second
	}
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Series{interval: interval, buf: make([]Sample, capacity)}
}

// Interval returns the fixed tick interval. Nil-safe.
func (s *Series) Interval() simtime.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Record appends a sample, overwriting the oldest when the ring is
// full. Nil-safe no-op; steady state allocates nothing.
func (s *Series) Record(smp Sample) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.buf[s.n%uint64(len(s.buf))] = smp
	s.n++
	s.mu.Unlock()
}

// Len returns the number of samples currently retained.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < uint64(len(s.buf)) {
		return int(s.n)
	}
	return len(s.buf)
}

// Dropped returns how many samples the ring has overwritten.
func (s *Series) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < uint64(len(s.buf)) {
		return 0
	}
	return s.n - uint64(len(s.buf))
}

// Samples returns the retained samples oldest-first as a fresh slice.
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samplesLocked()
}

func (s *Series) samplesLocked() []Sample {
	if s.n <= uint64(len(s.buf)) {
		return append([]Sample(nil), s.buf[:s.n]...)
	}
	out := make([]Sample, 0, len(s.buf))
	start := s.n % uint64(len(s.buf))
	out = append(out, s.buf[start:]...)
	out = append(out, s.buf[:start]...)
	return out
}

// Last returns the most recent sample, ok=false when empty.
func (s *Series) Last() (Sample, bool) {
	if s == nil {
		return Sample{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Sample{}, false
	}
	return s.buf[(s.n-1)%uint64(len(s.buf))], true
}

// TimeToResidual returns the time of the first retained sample whose
// residual is non-negative and at or below threshold, ok=false when
// the series never got there. This is the "time to eager quality"
// observable the convergence figure plots.
func (s *Series) TimeToResidual(threshold float64) (simtime.Duration, bool) {
	for _, smp := range s.Samples() {
		if smp.Residual >= 0 && smp.Residual <= threshold {
			return smp.Time, true
		}
	}
	return 0, false
}
