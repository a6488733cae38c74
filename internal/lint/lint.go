// Package lint is the asynclint analyzer suite: two
// golang.org/x/tools/go/analysis analyzers that enforce the contracts of
// the asynchronous runtime the Go type system cannot state. Every claim
// the reproduction makes — async beats eager, parallel-executor parity
// with the DES, bit-exact crash replay — rests on deterministic
// simulated runs; the determinism analyzer keeps wall clock, global
// randomness, map order and stray goroutines out of the engine, and the
// schedonly analyzer keeps scheduling bookkeeping on the scheduling
// goroutine. What the types already say (typed atomics reachable only
// through their methods, adapt.Policy sealed inside its package) is not
// re-checked here.
//
// The contracts are declared in the code itself with //async:
// annotations (comment directives, in the style of //go:build):
//
//	//async:deterministic
//	    Package marker, written in a file's package doc comment. Opts
//	    the whole package into the determinism analyzer: no wall-clock
//	    reads, no global math/rand, no bare go statements, no
//	    map-order-dependent iteration.
//
//	//async:sched-only
//	    Function, method, or interface-method annotation: the function
//	    may only run on the engine's scheduling goroutine. The schedonly
//	    analyzer verifies every reference to it comes from another
//	    sched-only function or from a declared scheduling-loop root.
//
//	//async:sched-root
//	    Function annotation: the function is a scheduling-loop entry
//	    point (it runs on, or establishes, the scheduling goroutine) and
//	    may therefore call sched-only functions freely.
//
//	//async:measured
//	    Function annotation: the function observes real elapsed time
//	    (the live executor's tasks and timers, the trace recorder's wall
//	    stamps), so the determinism analyzer's clock rule is waived
//	    inside it, and its body may call sched-only code (serialized
//	    under the engine mutex).
//
//	//async:pool
//	    Statement annotation (same line or the line above a go
//	    statement): waives the determinism analyzer's bare-go rule. The
//	    runtime's one such launch is the live executor's timer; both
//	    executors' pools are internal/workpool goroutines.
//
// Run the suite with scripts/lint.sh, or directly:
//
//	go build -o bin/asynclint ./cmd/asynclint
//	go vet -vettool=bin/asynclint ./...
package lint

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full asynclint suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		SchedOnlyAnalyzer,
	}
}
