// Package adapt is the adaptive staleness-control subsystem of the
// asynchronous runtime: a deterministic per-worker feedback controller
// that re-schedules each worker's effective staleness bound S(w) during
// the run, from the signals already flowing through the scheduler core
// (gate waits, steps since the last material publication).
//
// The source paper fixes S globally and up front, and so does the CLI:
// no controller has beaten the best fixed S in time to converge at equal
// quality (EXPERIMENTS.md, "Adaptive staleness"). The seam stays for
// AIMD, which the benchmark's hook workload drives, and for Fixed, the
// identity controller every static run goes through.
//
// Determinism: the controller itself is pure bookkeeping. All its
// decisions are made on the engine's scheduling goroutine, at step
// boundaries and gate-wait bookings — points that both executors (the
// sequential DES and the wall-clock-parallel executor) process in
// identical strict event order — and a policy is a pure function of the
// worker's accumulated Signals. Replaying a configuration therefore
// replays every controller decision, and the two executors see
// identical bound trajectories.
//
// Monotonic safety under speculation: a worker's bound changes only
// while the engine is processing that worker's own phases (its gate
// booking or its completed step), never while the worker's next event
// sits in the queue. The parallel executor's admission therefore reads
// the same bound when it dispatches a speculative step as the canonical
// gate reads when the event pops — the bound in force at the step's
// read time — so a later cut can never invalidate an already-admitted
// speculation, mirroring how crash events only ever delay publications.
//
// Purity comes from the types: Policy is sealed (its decision methods
// are unexported, so only this package can implement it) and those
// methods take Signals by value, so no policy can write the
// controller's state. Determinism is machine-checked by internal/lint:
// the package carries the deterministic marker (no wall clock, no
// global randomness, no map-order iteration).
//
//async:deterministic
package adapt

import "fmt"

// Signals is one worker's controller input, maintained by the engine on
// the scheduling goroutine: the fields some policy reads, and no others.
// Only the Controller writes it.
type Signals struct {
	// Bound is the staleness bound currently in force for the worker
	// (negative = free-running). It is the policy's own previous output.
	Bound int
	// StallSteps counts consecutive completed steps that published
	// nothing — the wasted/extra-step estimate: the worker is spinning
	// on inputs too stale to move its state materially.
	StallSteps int
}

// Policy decides a worker's next staleness bound from its signals. The
// interface is sealed: only this package's policies (Fixed and AIMD)
// implement it, and each decision is a pure function of a copy of the
// worker's Signals. That is what lets one Policy value drive many runs
// and every executor deterministically.
type Policy interface {
	// String is the policy's spelling in labels and traces.
	String() string
	// start returns every worker's starting bound.
	start() int
	// onGateWait is consulted when a staleness-gate wait is booked for
	// the worker, and returns the worker's new bound.
	onGateWait(sig Signals) int
	// onStep is consulted after each completed step, and returns the
	// worker's new bound.
	onStep(sig Signals) int
}

// Fixed returns the static policy: every worker keeps bound s for the
// whole run. Any negative s is free-running and is kept as -1 (the
// runtime's Unbounded), so every spelling of free-running reports the
// same bound and prints as "fixed:inf". It is the identity controller —
// an engine run under Fixed(s) is bit-identical to one with the
// controller absent and a global bound s.
func Fixed(s int) Policy { return fixedPolicy{max(s, -1)} }

type fixedPolicy struct{ s int }

func (p fixedPolicy) start() int                 { return p.s }
func (p fixedPolicy) onGateWait(sig Signals) int { return sig.Bound }
func (p fixedPolicy) onStep(sig Signals) int     { return sig.Bound }
func (p fixedPolicy) String() string {
	if p.s < 0 {
		return "fixed:inf"
	}
	return fmt.Sprintf("fixed:%d", p.s)
}

// AIMD returns the additive-increase/multiplicative-decrease policy:
// every gate wait raises the worker's bound by one (the bound is too
// tight — the worker is blocking on laggards), up to max; every run of
// stall consecutive steps without a material publication halves it (the
// bound is too loose — the worker is spinning on stale inputs, doing
// extra steps that move nothing), down to zero (lockstep). The
// TCP-style asymmetry probes for head-room gently and backs off from
// waste fast.
func AIMD(start, max, stall int) (Policy, error) {
	switch {
	case start < 0:
		return nil, fmt.Errorf("adapt: aimd start bound must be >= 0, got %d", start)
	case max < start:
		return nil, fmt.Errorf("adapt: aimd max bound %d below start %d", max, start)
	case stall < 1:
		return nil, fmt.Errorf("adapt: aimd stall threshold must be >= 1, got %d", stall)
	}
	return aimdPolicy{first: start, max: max, stall: stall}, nil
}

// AIMDDefault returns AIMD with the default parameters (start 1, max
// 16, stall threshold 2).
func AIMDDefault() Policy {
	p, _ := AIMD(1, 16, 2)
	return p
}

type aimdPolicy struct{ first, max, stall int }

func (p aimdPolicy) start() int { return p.first }
func (p aimdPolicy) String() string {
	return fmt.Sprintf("aimd:%d:%d:%d", p.first, p.max, p.stall)
}

func (p aimdPolicy) onGateWait(sig Signals) int {
	if sig.Bound < p.max {
		return sig.Bound + 1
	}
	return sig.Bound
}

func (p aimdPolicy) onStep(sig Signals) int {
	if sig.StallSteps >= p.stall {
		return sig.Bound / 2
	}
	return sig.Bound
}

// Controller owns the per-worker signals and bound trajectory of one
// run. All methods must be called from the engine's scheduling
// goroutine; the Controller performs no synchronization of its own.
type Controller struct {
	pol Policy
	sig []Signals

	raises, cuts int64
	samples      int64
	sumBound     float64
	maxBound     int
}

// NewController builds the controller for n workers, seeding every
// worker's bound from the policy.
func NewController(pol Policy, n int) *Controller {
	c := &Controller{pol: pol, sig: make([]Signals, n), maxBound: pol.start()}
	for w := range c.sig {
		c.sig[w].Bound = pol.start()
	}
	return c
}

// Bound returns worker w's staleness bound currently in force
// (negative = free-running).
//
//async:sched-only
func (c *Controller) Bound(w int) int { return c.sig[w].Bound }

// GateWait books one staleness-gate wait for worker w and consults the
// policy. Reports whether the bound changed.
//
//async:sched-only
func (c *Controller) GateWait(w int) bool {
	sig := &c.sig[w]
	return c.apply(sig, c.pol.onGateWait(*sig))
}

// StepDone records worker w's completed step (and whether it published
// a material change), samples the bound that was in force for it, and
// consults the policy. Reports whether the bound changed.
//
//async:sched-only
func (c *Controller) StepDone(w int, published bool) bool {
	sig := &c.sig[w]
	if published {
		sig.StallSteps = 0
	} else {
		sig.StallSteps++
	}
	c.samples++
	c.sumBound += float64(sig.Bound)
	return c.apply(sig, c.pol.onStep(*sig))
}

// apply installs a policy decision, counting raises and cuts and
// tracking the largest bound ever in force.
//
//async:sched-only
func (c *Controller) apply(sig *Signals, b int) bool {
	if b == sig.Bound {
		return false
	}
	if b > sig.Bound {
		c.raises++
	} else {
		c.cuts++
	}
	sig.Bound = b
	if b > c.maxBound {
		c.maxBound = b
	}
	return true
}

// Raises and Cuts count the controller's bound changes over the run.
func (c *Controller) Raises() int64 { return c.raises }

// Cuts counts downward bound changes; see Raises.
func (c *Controller) Cuts() int64 { return c.cuts }

// StalenessMean is the mean bound in force across executed steps (each
// step samples its worker's bound). Runs with free-running bounds
// contribute their negative sentinel.
func (c *Controller) StalenessMean() float64 {
	if c.samples == 0 {
		return 0
	}
	return c.sumBound / float64(c.samples)
}

// StalenessMax is the largest bound ever in force on any worker.
func (c *Controller) StalenessMax() int { return c.maxBound }
