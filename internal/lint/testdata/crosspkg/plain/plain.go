// Package plain refers to package sched's sched-only code, from plain
// code and from a scheduling-loop root.
package plain

import "repro/internal/lint/testdata/crosspkg/sched"

// offGoroutine is plain code: another package's sched-only code is as
// much out of its reach as its own package's.
func offGoroutine(e *sched.Engine, s sched.Scheduler) {
	sched.Advance(e, 1)  // want `Advance is //async:sched-only but is referenced from offGoroutine`
	s.Gate(0)            // want `Gate is //async:sched-only but is referenced from offGoroutine`
	sched.Settle(e, 2.5) // want `Settle is //async:sched-only but is referenced from offGoroutine`
	e.Clock++            // plain fields stay legal
}

// drive is this package's scheduling loop.
//
//async:sched-root
func drive(e *sched.Engine, s sched.Scheduler) {
	for s.Gate(0) { // roots may call another package's sched-only code
		sched.Advance(e, sched.Settle(e, 1))
	}
}

var _ = []any{offGoroutine, drive}
