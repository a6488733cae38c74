// Package purepolicy holds seeded violations of the policy purity
// contract: adapt.Policy implementations that mutate state or observe
// the world outside their Signals.
package purepolicy

import (
	"math/rand"
	"time"

	"repro/internal/adapt"
)

// pure is a well-behaved policy: every decision is a function of the
// Signals alone.
type pure struct{ cap int }

func (p pure) Name() string                      { return "pure" }
func (p pure) String() string                    { return "pure" }
func (p pure) Init() int                         { return p.cap }
func (p pure) OnGateWait(sig *adapt.Signals) int { return sig.Bound + 1 }
func (p pure) OnStep(sig *adapt.Signals) int     { return sig.Bound }
func (p pure) NeedsLag() bool                    { return false }

var calls int

// sneaky violates the contract in every way the analyzer covers.
type sneaky struct {
	bound   int
	history []int
}

func (s *sneaky) Name() string   { return "sneaky" }
func (s *sneaky) String() string { return "sneaky" }
func (s *sneaky) Init() int      { return 0 }

func (s *sneaky) OnGateWait(sig *adapt.Signals) int {
	s.bound = sig.Bound + 1 // want `impure adapt.Policy method OnGateWait: writes receiver field bound`
	calls++                 // want `impure adapt.Policy method OnGateWait: writes package-level variable calls`
	return s.bound
}

func (s *sneaky) OnStep(sig *adapt.Signals) int {
	if time.Now().Unix()%2 == 0 { // want `impure adapt.Policy method OnStep: reads the wall clock via time.Now`
		return rand.Intn(4) // want `impure adapt.Policy method OnStep: draws global randomness via rand.Intn`
	}
	s.history[0] = sig.Bound // want `impure adapt.Policy method OnStep: writes into receiver-reachable state`
	return sig.Bound
}

func (s *sneaky) NeedsLag() bool { return false }

var _ adapt.Policy = pure{}
var _ adapt.Policy = (*sneaky)(nil)
