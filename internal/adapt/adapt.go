// Package adapt is the adaptive staleness-control subsystem of the
// asynchronous runtime: a deterministic per-worker feedback controller
// that re-schedules each worker's effective staleness bound S(w) during
// the run, from the signals already flowing through the scheduler core
// (gate waits, steps since the last material publication, publish lag
// behind neighbors).
//
// The source paper fixes S globally and up front, but the right bound
// varies by preset, workload, and phase of the run: lockstep (S=0) pays
// tens of thousands of gate waits on a cross-rack cluster, while
// free-running trades ~12% extra time in stale steps (EXPERIMENTS.md).
// The controller follows the direction of history-aware asynchrony
// (Soori et al.'s ASYNC) and bounded-approximation asynchrony (Kadav &
// Kruus's ASAP): observe how the asynchrony budget is actually being
// spent and move the bound per worker instead of picking one number for
// the whole cluster.
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

import (
	"fmt"
	"strconv"
	"strings"
)

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
	// Lag is the worker's newest observed publish lag: the largest
	// number of published-but-unconsumed versions across the partitions
	// it reads, sampled at its last completed step. It estimates the
	// drift between the worker's view and the frontier (the ASAP-style
	// signal). Maintained only for policies that read it.
	Lag int
}

// Policy decides a worker's next staleness bound from its signals. The
// interface is sealed: only this package's policies (Fixed, AIMD,
// Drift, built by Parse) implement it, and each decision is a pure
// function of a copy of the worker's Signals. That is what lets one
// Policy value drive many runs and every executor deterministically.
type Policy interface {
	// String is the CLI/figure spelling; Parse round-trips it.
	String() string
	// start returns every worker's starting bound.
	start() int
	// onGateWait is consulted when a staleness-gate wait is booked for
	// the worker, and returns the worker's new bound.
	onGateWait(sig Signals) int
	// onStep is consulted after each completed step, and returns the
	// worker's new bound.
	onStep(sig Signals) int
	// needsLag reports whether the policy reads Signals.Lag, so the
	// engine can skip the per-step neighbor scan for policies that
	// don't.
	needsLag() bool
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
func (p fixedPolicy) needsLag() bool             { return false }
func (p fixedPolicy) String() string {
	if p.s < 0 {
		return "fixed:inf"
	}
	return fmt.Sprintf("fixed:%d", p.s)
}

// AIMD defaults (see AIMDDefault).
const (
	DefaultAIMDStart = 1
	DefaultAIMDMax   = 16
	DefaultAIMDStall = 2
)

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
	p, _ := AIMD(DefaultAIMDStart, DefaultAIMDMax, DefaultAIMDStall)
	return p
}

type aimdPolicy struct{ first, max, stall int }

func (p aimdPolicy) start() int     { return p.first }
func (p aimdPolicy) needsLag() bool { return false }
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

// DefaultDriftCap is Drift's default accumulated-drift budget.
const DefaultDriftCap = 8

// Drift returns the ASAP-style bounded-drift policy: the worker's
// asynchrony budget is cap versions of total drift between its view and
// the frontier. A worker that is lag versions behind on reading its
// neighbors may lead by at most cap-lag, so its bound is cap minus its
// observed publish lag (floored at zero): workers whose view has
// drifted far run near-lockstep until they catch up, fully-caught-up
// workers get the whole budget.
func Drift(cap int) (Policy, error) {
	if cap < 0 {
		return nil, fmt.Errorf("adapt: drift cap must be >= 0, got %d", cap)
	}
	return driftPolicy{cap: cap}, nil
}

// DriftDefault returns Drift with the default cap.
func DriftDefault() Policy {
	p, _ := Drift(DefaultDriftCap)
	return p
}

type driftPolicy struct{ cap int }

func (p driftPolicy) start() int                 { return p.cap }
func (p driftPolicy) onGateWait(sig Signals) int { return sig.Bound }
func (p driftPolicy) needsLag() bool             { return true }
func (p driftPolicy) String() string             { return fmt.Sprintf("drift:%d", p.cap) }

func (p driftPolicy) onStep(sig Signals) int {
	b := p.cap - sig.Lag
	if b < 0 {
		b = 0
	}
	return b
}

// Parse round-trips a policy spelling: "fixed:S" (S an integer or
// "inf"), "aimd[:START[:MAX[:STALL]]]", or "drift[:CAP]".
func Parse(s string) (Policy, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	ints := func(defaults ...int) ([]int, error) {
		out := append([]int(nil), defaults...)
		if len(parts)-1 > len(out) {
			return nil, fmt.Errorf("adapt: policy %q has %d parameters, want <= %d", s, len(parts)-1, len(out))
		}
		for i, f := range parts[1:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("adapt: bad policy parameter %q in %q", f, s)
			}
			out[i] = v
		}
		return out, nil
	}
	switch parts[0] {
	case "fixed":
		if len(parts) == 2 && parts[1] == "inf" {
			return Fixed(-1), nil
		}
		v, err := ints(0)
		if err != nil {
			return nil, err
		}
		return Fixed(v[0]), nil
	case "aimd":
		v, err := ints(DefaultAIMDStart, DefaultAIMDMax, DefaultAIMDStall)
		if err != nil {
			return nil, err
		}
		return AIMD(v[0], v[1], v[2])
	case "drift":
		v, err := ints(DefaultDriftCap)
		if err != nil {
			return nil, err
		}
		return Drift(v[0])
	default:
		return nil, fmt.Errorf("adapt: unknown policy %q (want fixed:S, aimd[:START[:MAX[:STALL]]] or drift[:CAP])", s)
	}
}

// ParseStaleness parses the CLI's -staleness value: a plain integer is
// a fixed global bound ("4"; any negative or "inf" = unbounded, returned
// as -1 with a nil Policy — the engine's static fast path), and
// "adaptive:POLICY" selects a controller policy (the returned staleness
// is the policy's initial bound, for labels and defaults).
func ParseStaleness(s string) (staleness int, pol Policy, err error) {
	s = strings.TrimSpace(s)
	if s == "inf" {
		return -1, nil, nil
	}
	if v, aerr := strconv.Atoi(s); aerr == nil {
		return max(v, -1), nil, nil
	}
	spec, ok := strings.CutPrefix(s, "adaptive:")
	if !ok {
		return 0, nil, fmt.Errorf("adapt: bad staleness %q (want an integer, inf, or adaptive:POLICY)", s)
	}
	pol, err = Parse(spec)
	if err != nil {
		return 0, nil, err
	}
	return pol.start(), pol, nil
}

// Controller owns the per-worker signals and bound trajectory of one
// run. All methods must be called from the engine's scheduling
// goroutine; the Controller performs no synchronization of its own.
type Controller struct {
	pol     Policy
	sig     []Signals
	needLag bool

	raises, cuts int64
	samples      int64
	sumBound     float64
	maxBound     int
}

// NewController builds the controller for n workers, seeding every
// worker's bound from the policy.
func NewController(pol Policy, n int) *Controller {
	c := &Controller{pol: pol, sig: make([]Signals, n), needLag: pol.needsLag(), maxBound: pol.start()}
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

// NeedsLag reports whether StepDone wants the lag signal computed.
func (c *Controller) NeedsLag() bool { return c.needLag }

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
// consults the policy. lag is the worker's current publish lag (pass 0
// unless NeedsLag). Reports whether the bound changed.
//
//async:sched-only
func (c *Controller) StepDone(w int, published bool, lag int) bool {
	sig := &c.sig[w]
	if published {
		sig.StallSteps = 0
	} else {
		sig.StallSteps++
	}
	sig.Lag = lag
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
