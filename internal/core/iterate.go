package core

import (
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
	// across all tasks and iterations (mapreduce.Cost.LocalSyncs).
	LocalIterations int64
	// ShuffleRecords is the total count of records that crossed the
	// global synchronizations.
	ShuffleRecords int64
	// Failures counts replayed task attempts.
	Failures int
	// Converged is false if the run stopped at DefaultMaxIterations.
	Converged bool
}

// DefaultMaxIterations bounds every iterative run. Runaway
// non-convergence is a bug in the application; a run that reaches the
// bound returns with RunStats.Converged false.
const DefaultMaxIterations = 10000

// Iterate is the loop of every synchronous iterative run: it runs global
// iterations step(1), step(2), ... until one reports convergence or
// DefaultMaxIterations have run, summing the price of each one's job into
// the run's statistics. A step's error ends the run as the step wrote it.
func Iterate(step func(iter int) (cost mapreduce.Cost, converged bool, err error)) (*RunStats, error) {
	stats := &RunStats{}
	for iter := 1; iter <= DefaultMaxIterations; iter++ {
		cost, converged, err := step(iter)
		if err != nil {
			return nil, err
		}
		stats.GlobalIterations = iter
		stats.Duration += cost.Duration
		stats.LocalIterations += cost.LocalSyncs
		stats.ShuffleRecords += cost.ShuffleRecords
		stats.Failures += cost.Failures
		if converged {
			stats.Converged = true
			break
		}
	}
	return stats, nil
}
