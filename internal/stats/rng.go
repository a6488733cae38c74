// Package stats provides deterministic pseudo-random number generation and
// small numeric utilities (norms, power-law fitting, series summaries) used
// across the repository. All experiment randomness flows through RNG so that
// every figure and table in the paper reproduction is bit-reproducible from
// a seed.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. It is intentionally not crypto-grade: experiments need speed
// and reproducibility, not unpredictability. The zero value is a valid
// generator seeded with 0; prefer NewRNG to make seeding explicit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next value in the stream (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Two uniforms are consumed per call; no state is cached so the
// stream position stays easy to reason about.
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice
// (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent child generator. Deriving children lets
// concurrent workloads draw reproducible streams without sharing a
// generator (RNG is not safe for concurrent use).
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}
