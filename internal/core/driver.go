package core

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/simtime"
)

// RunStats summarizes an iterative run to convergence.
type RunStats struct {
	// GlobalIterations is the number of global MapReduce iterations
	// executed (the paper's Figures 2, 3, 6, 8 y-axis).
	GlobalIterations int
	// Duration is total simulated time to convergence (Figures 4, 5, 7,
	// 9 y-axis).
	Duration simtime.Duration
	// LocalIterations is the total count of partial synchronizations
	// across all tasks and iterations (mapreduce.Result.LocalSyncs).
	LocalIterations int64
	// ShuffleRecords is the total count of records that crossed the
	// global synchronizations.
	ShuffleRecords int64
	// Failures counts replayed task attempts.
	Failures int
	// Converged is false if the run stopped at DefaultMaxIterations.
	Converged bool
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
}

// DefaultMaxIterations bounds every iterative run. Runaway
// non-convergence is a bug in the application; a run that reaches the
// bound returns with RunStats.Converged false.
const DefaultMaxIterations = 10000

// Run executes the iterative computation on the given splits.
func (d *Driver[P, K, V]) Run(splits []mapreduce.Split[P]) (*RunStats, error) {
	if d.Engine == nil || d.Job == nil || d.Update == nil {
		return nil, fmt.Errorf("core: Driver requires Engine, Job and Update")
	}
	stats := &RunStats{}
	for iter := 1; iter <= DefaultMaxIterations; iter++ {
		res, err := mapreduce.Run(d.Engine, d.Job, splits)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d: %w", iter, err)
		}
		stats.GlobalIterations = iter
		stats.Duration += res.Duration
		stats.LocalIterations += res.LocalSyncs
		stats.ShuffleRecords += res.ShuffleRecords
		stats.Failures += res.Failures

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
