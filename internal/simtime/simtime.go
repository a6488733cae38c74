// Package simtime provides the virtual-time vocabulary for the simulated
// cluster. The reproduction executes real computation (actual PageRank /
// SSSP / K-Means arithmetic) but prices it in virtual time so that
// "time to converge" figures have the magnitude and shape of the paper's
// 8-node EC2 Hadoop testbed rather than of this process's wall clock.
//
// Duration is a float64 count of simulated seconds. A dedicated type keeps
// simulated time from being confused with time.Duration at compile time.
//
// The package is part of the deterministic engine core: replays must be
// bit-identical, so wall-clock reads, global randomness, and map-order
// iteration are forbidden here (enforced by internal/lint).
//
//async:deterministic
package simtime

import (
	"fmt"
	"sort"
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
		var s Duration
		for _, t := range tasks {
			s += t
		}
		return s
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
