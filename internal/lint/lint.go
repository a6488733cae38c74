// Package lint is the asynclint analyzer suite: a set of
// golang.org/x/tools/go/analysis analyzers that mechanically enforce
// the concurrency and determinism contracts of the asynchronous
// runtime. Every claim the reproduction makes — async beats eager,
// parallel-executor parity with the DES, bit-exact crash replay,
// speculation-safe adaptive bounds — rests on invariants that used to
// live only in doc comments; this package turns them into machine
// checks so a new executor or subsystem cannot silently erode them.
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
//	//async:atomic
//	    Struct-field annotation: the field must be accessed exclusively
//	    through sync/atomic — either a sync/atomic value type
//	    (atomic.Uint64, atomic.Pointer[T], ...) used only via its
//	    methods, or a plain word passed by address to the atomic.*
//	    functions. Any mixed plain read or write is flagged.
//
//	//async:pool
//	    Statement annotation (same line or the line above a go
//	    statement): waives the determinism analyzer's bare-go rule for
//	    the executor's pool dispatch, the one place the runtime is
//	    allowed to spawn goroutines.
//
//	//async:unordered-ok
//	    Statement annotation on a range-over-map: asserts the loop body
//	    is iteration-order-insensitive, waiving the determinism
//	    analyzer's ordered-iteration rule.
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
		AtomicFieldAnalyzer,
		PurePolicyAnalyzer,
	}
}
