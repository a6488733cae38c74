// A misspelt directive binds nothing, so it is reported rather than
// silently dropping its contract.
//
//async:determinstic // want `unknown //async: directive "determinstic"`
package determinism

import (
	. "math/rand"
	. "time"
)

// A dot import hides the package name, not the function: the rule keys
// on what an identifier resolves to.
func dotImported() (Duration, int) {
	start := Now()         // want `time.Now reads the wall clock`
	n := Intn(10)          // want `rand.Intn draws from process-global randomness`
	return Since(start), n // want `time.Since reads the wall clock`
}

// The pure vocabulary stays legal through a dot import too.
func dotPure(seed int64) (*Rand, Duration) { return New(NewSource(seed)), Millisecond }

//async:measurd // want `unknown //async: directive "measurd"`
func misspelt() Time {
	//async:pool: // want `unknown //async: directive "pool:"`
	go dotPure(1) // want `bare go statement in deterministic engine code`
	return Now()  // want `time.Now reads the wall clock`
}

var _ = []any{dotImported, dotPure, misspelt}
