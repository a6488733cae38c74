// Package schedonly holds seeded violations of the scheduling-goroutine
// contract: //async:sched-only functions referenced from code that is
// neither sched-only nor a declared scheduling-loop root.
package schedonly

type engine struct{ clock int }

// advance moves the engine's virtual clock.
//
//async:sched-only
func (e *engine) advance(d int) { e.clock += d }

// admit pops the next event.
//
//async:sched-only
func (e *engine) admit() int {
	e.advance(1) // sched-only may call sched-only
	return e.clock
}

// scheduler is the phase contract.
type scheduler interface {
	//async:sched-only
	Gate(p int) bool
}

// drive is the scheduling loop.
//
//async:sched-root
func drive(e *engine, s scheduler) {
	for e.admit() < 10 {
		if s.Gate(0) { // roots may call sched-only interface methods
			e.advance(2)
		}
	}
}

// offGoroutine is plain code: it has no business touching the
// scheduling state.
func offGoroutine(e *engine, s scheduler) {
	e.advance(1) // want `advance is //async:sched-only but is referenced from offGoroutine`
	s.Gate(0)    // want `Gate is //async:sched-only but is referenced from offGoroutine`
}

// escape leaks a sched-only method as a function value.
func escape(e *engine) func(int) {
	return e.advance // want `advance is //async:sched-only but is referenced from escape`
}

// poolDispatch shows a function literal does NOT inherit its enclosing
// root's clearance: the closure may run on a pool goroutine.
//
//async:sched-root
func poolDispatch(e *engine) {
	go func() {
		e.advance(1) // want `advance is //async:sched-only but is referenced from poolDispatch \(func literal\)`
	}()
}

// measuredTask is a pool-goroutine executor context: sanctioned to call
// sched-only code because it serializes those calls under the engine
// mutex rather than on a single scheduling goroutine.
//
//async:measured
func measuredTask(e *engine, s scheduler) {
	e.advance(1) // measured contexts may call sched-only code
	s.Gate(0)
}

// A literal inside a measured context does not inherit the clearance:
// the closure may escape to an unsanctioned goroutine.
//
//async:measured
func measuredEscape(e *engine) {
	go func() {
		e.advance(1) // want `advance is //async:sched-only but is referenced from measuredEscape \(func literal\)`
	}()
}

// behind is a plain helper: it calls nothing sched-only, so it carries
// no marker and both kinds of cleared context may share it — the shape of
// the engine's rules over the partition model (gate, input read), which
// sched-only phases and measured live tasks both call.
func behind(e *engine, than int) int { return than - e.clock }

//async:sched-only
func (e *engine) settle() { e.advance(behind(e, 10)) }

//async:measured
func measuredSettle(e *engine) int {
	e.settle()
	return behind(e, 10)
}

// A misspelt directive binds nothing, so it is reported rather than
// silently dropping its contract.
//
//async:sched_only // want `unknown //async: directive "sched_only"`
func (e *engine) rewind() { e.clock = 0 }

//async:schedroot // want `unknown //async: directive "schedroot"`
func misspeltRoot(e *engine) { e.rewind() }

var _ = []any{drive, offGoroutine, escape, poolDispatch, measuredTask, measuredEscape, measuredSettle, misspeltRoot}
