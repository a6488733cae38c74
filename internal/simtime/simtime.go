// Package simtime provides the virtual-time vocabulary for the simulated
// cluster. The reproduction executes real computation (actual PageRank /
// SSSP / K-Means arithmetic) but charges time to a virtual clock so that
// "time to converge" figures have the magnitude and shape of the paper's
// 8-node EC2 Hadoop testbed rather than of this process's wall clock.
//
// Duration is a float64 count of simulated seconds. A dedicated type keeps
// simulated time from being confused with time.Duration at compile time.
//
// The package is part of the deterministic engine core: replays must be
// bit-identical, so wall-clock reads, global randomness, and map-order
// iteration are forbidden here (enforced by cmd/asynclint).
//
//async:deterministic
package simtime

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Duration is a span of simulated time in seconds.
type Duration float64

// Common units.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
)

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats the duration with a sensible unit.
func (d Duration) String() string {
	switch {
	case d < Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d/Microsecond))
	case d < Second:
		return fmt.Sprintf("%.2fms", float64(d/Millisecond))
	case d < Minute:
		return fmt.Sprintf("%.2fs", float64(d))
	default:
		return fmt.Sprintf("%.1fm", float64(d/Minute))
	}
}

// Clock is a monotonically advancing virtual clock. A single scheduling
// goroutine owns advancement (Advance/Reset are not mutually
// safe), but Now is safe to call from any goroutine at any time: the
// parallel async executor runs worker steps on real goroutines while the
// scheduling loop advances virtual time, and progress reporting must be
// able to observe the clock without synchronizing with that loop.
//
// Per-worker local clocks (each asynchronous worker's own virtual time)
// are plain Durations owned by the scheduling loop; this type is the
// shared, concurrently-readable cluster clock they merge into.
type Clock struct {
	// bits holds the Duration as float64 bits; zero value = time zero.
	// Read concurrently by progress reporting while the scheduling loop
	// advances it; the atomic type admits no other access.
	bits atomic.Uint64
}

// Now returns the current virtual time since the clock's epoch. Safe for
// concurrent use with a single advancing goroutine.
func (c *Clock) Now() Duration {
	return Duration(math.Float64frombits(c.bits.Load()))
}

//async:sched-only
func (c *Clock) store(t Duration) {
	c.bits.Store(math.Float64bits(float64(t)))
}

// Advance moves the clock forward by d. Negative advances panic: virtual
// time never flows backwards, and a negative d means a cost model bug.
//
//async:sched-only
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %v", d))
	}
	c.store(c.Now() + d)
}

// Reset rewinds the clock to zero for reuse across experiment runs.
//
//async:sched-only
func (c *Clock) Reset() { c.store(0) }

// MaxOver returns the maximum of ds, the virtual time at which a barrier
// over parallel spans completes. An empty slice yields zero.
func MaxOver(ds []Duration) Duration {
	var m Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// SumOver returns the total of ds, the virtual time of a serial schedule.
func SumOver(ds []Duration) Duration {
	var s Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// MakespanLPT computes the completion time of scheduling the given task
// durations onto `slots` identical parallel servers using longest
// processing time first — the classic 4/3-approximation. The MapReduce
// engine uses it to model a wave of map tasks over the cluster's map
// slots: with more tasks than slots, tasks queue, exactly as Hadoop
// schedules task waves.
func MakespanLPT(tasks []Duration, slots int) Duration {
	if len(tasks) == 0 {
		return 0
	}
	if slots <= 1 {
		return SumOver(tasks)
	}
	sorted := append([]Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	// Min-heap over slot completion times, implemented inline to keep the
	// package dependency-free.
	heap := make([]Duration, slots)
	for _, t := range sorted {
		// heap[0] is the earliest-free slot.
		heap[0] += t
		// Sift down.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < slots && heap[l] < heap[small] {
				small = l
			}
			if r < slots && heap[r] < heap[small] {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	return MaxOver(heap)
}
