// Package determinism holds seeded violations of the determinism
// contract: wall-clock reads, global randomness, unordered map
// iteration, and bare goroutine spawns.
//
//async:deterministic
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()          // want `time.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time.Sleep reads the wall clock`
	return time.Since(start)     // want `time.Since reads the wall clock`
}

// The time package's pure vocabulary stays legal.
func virtualOnly(d time.Duration) float64 { return d.Seconds() }

func globalRand() int {
	x := rand.Intn(10)                 // want `rand.Intn draws from process-global randomness`
	rand.Shuffle(x, func(i, j int) {}) // want `rand.Shuffle draws from process-global randomness`
	return x
}

// A locally seeded generator replays; only the process-global stream is
// forbidden.
func localRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func mapIteration(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is unspecified`
		sum += v
	}
	keys := make([]int, 0, len(m))
	// Even an order-insensitive body has no waiver: the rule is the map
	// range itself.
	for k := range m { // want `map iteration order is unspecified`
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys { // slices range in order: legal
		sum += m[k]
	}
	return sum
}

func spawn(work func()) {
	go work() // want `bare go statement in deterministic engine code`
	//async:pool the executor's dispatch point
	go work()
}

// measuredCost is the live executor's waiver: an //async:measured
// function exists to observe real elapsed time, so wall-clock reads are
// legal inside it.
//
//async:measured
func measuredCost(work func()) time.Duration {
	start := time.Now() // no diagnostic: measured context
	work()
	return time.Since(start)
}

// The waiver is scoped to the clock: measured code is still bound by
// the randomness and goroutine-spawn rules.
//
//async:measured
func measuredSpawn(work func()) int {
	go work()         // want `bare go statement in deterministic engine code`
	return rand.Int() // want `rand.Int draws from process-global randomness`
}

// measuredStamp is the trace layer's use of the same waiver: it records
// a wall-clock observation into an external buffer without consulting
// it.
//
//async:measured
func measuredStamp(events []time.Duration) []time.Duration {
	return append(events, time.Since(time.Now())) // no diagnostic: measured context
}

// The waiver does not reach the map-order rule either.
//
//async:measured
func measuredRange(m map[int]int) int {
	n := 0
	for range m { // want `map iteration order is unspecified`
		n++
	}
	return n
}

// Silence unused-function vetting in the example package.
var _ = []any{wallClock, virtualOnly, globalRand, localRand, mapIteration, spawn, measuredCost, measuredSpawn, measuredStamp, measuredRange}
