// Package sched declares sched-only code for package plain to refer to:
// the sched-only rule follows a reference across the package boundary.
package sched

// Engine is the scheduling state.
type Engine struct{ Clock int }

// Advance moves the engine's virtual clock.
//
//async:sched-only
func Advance(e *Engine, d int) { e.Clock += d }

// Settle is generic: a reference to an instantiation is a reference to
// Settle.
//
//async:sched-only
func Settle[T any](e *Engine, v T) T {
	Advance(e, 1) // sched-only may call sched-only
	return v
}

// Scheduler is the phase contract.
type Scheduler interface {
	//async:sched-only
	Gate(p int) bool
}
