package core

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/simtime"
)

// IterationStats records one global iteration of an iterative job.
type IterationStats struct {
	// Iteration is 1-based.
	Iteration int
	// Duration is the simulated duration of this global iteration's
	// MapReduce job (including the global synchronization).
	Duration simtime.Duration
	// ShuffleBytes / ShuffleRecords measure the global synchronization's
	// data volume.
	ShuffleBytes   int64
	ShuffleRecords int64
	// LocalIterations sums the local (partial-sync) iterations executed
	// inside all gmap tasks this global iteration; 0 for jobs that do
	// not use the partial synchronization runtime.
	LocalIterations int64
	// Failures counts replayed task attempts.
	Failures int
}

// RunStats summarizes an iterative run to convergence.
type RunStats struct {
	// GlobalIterations is the number of global MapReduce iterations
	// executed (the paper's Figures 2, 3, 6, 8 y-axis).
	GlobalIterations int
	// Duration is total simulated time to convergence (Figures 4, 5, 7,
	// 9 y-axis).
	Duration simtime.Duration
	// LocalIterations is the total count of partial synchronizations
	// across all tasks and iterations.
	LocalIterations int64
	// Converged is false if MaxIterations stopped the run first.
	Converged bool
	// PerIteration holds per-global-iteration details.
	PerIteration []IterationStats
}

// Driver runs a MapReduce job iteratively until the application reports
// global convergence, re-feeding each global reduction into the next
// iteration's splits. It works for both formulations: the general
// (synchronous) formulation uses a plain map function; the eager
// formulation uses a BuildGMap-composed map function.
type Driver[P any, K comparable, V any] struct {
	// Engine executes the per-iteration jobs.
	Engine *mapreduce.Engine
	// Job is the per-iteration job template (gmap/greduce for eager
	// formulations).
	Job *mapreduce.Job[P, K, V]
	// Update integrates one global reduction's output into the splits
	// for the next iteration and reports whether the computation has
	// globally converged. It runs between iterations (driver side, like
	// the convergence check a Hadoop job driver performs between
	// chained jobs). output is valid only during the call: the next
	// iteration's job writes its output over it (mapreduce.Job.Recycle).
	Update func(iter int, output []mapreduce.KV[K, V], splits []mapreduce.Split[P]) (converged bool, err error)
	// MaxIterations bounds the run; 0 means DefaultMaxIterations.
	MaxIterations int
}

// DefaultMaxIterations bounds iterative runs whose Driver.MaxIterations
// is zero. Runaway non-convergence is a bug in the application, and the
// bound converts it into a diagnosable error.
const DefaultMaxIterations = 10000

// Run executes the iterative computation on the given splits.
func (d *Driver[P, K, V]) Run(splits []mapreduce.Split[P]) (*RunStats, error) {
	if d.Engine == nil || d.Job == nil || d.Update == nil {
		return nil, fmt.Errorf("core: Driver requires Engine, Job and Update")
	}
	maxIter := d.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	stats := &RunStats{}
	for iter := 1; iter <= maxIter; iter++ {
		res, err := mapreduce.Run(d.Engine, d.Job, splits)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d: %w", iter, err)
		}
		it := IterationStats{
			Iteration:       iter,
			Duration:        res.Duration,
			ShuffleBytes:    res.ShuffleBytes,
			ShuffleRecords:  res.ShuffleRecords,
			LocalIterations: res.Counters[LocalIterationsCounter],
			Failures:        res.Failures,
		}
		stats.PerIteration = append(stats.PerIteration, it)
		stats.GlobalIterations = iter
		stats.Duration += res.Duration
		stats.LocalIterations += it.LocalIterations

		converged, err := d.Update(iter, res.Output, splits)
		d.Job.Recycle(res.Output)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d update: %w", iter, err)
		}
		if converged {
			stats.Converged = true
			return stats, nil
		}
	}
	return stats, nil
}
