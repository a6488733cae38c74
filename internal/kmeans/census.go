// Package kmeans implements the paper's K-Means workload (§V-D) in both
// formulations, plus a synthetic stand-in for its input data.
//
// The paper clusters a 200K-point sample of the UCI "US Census Data
// (1990)" set, 68 dimensions per point. That dataset is discretized: each
// of the 68 attributes is a small non-negative integer category code.
// Since the repository must be self-contained and offline, GenerateCensus
// synthesizes data with the same shape: a fixed number of latent
// population segments (prototype code vectors) with per-attribute
// mutation noise, yielding clusterable integer-coded vectors of the same
// size and dimensionality. The substitution preserves what the experiment
// measures — iterations/time to converge of General vs Eager K-Means
// under varying convergence thresholds — because both run on identical
// inputs and the data has comparable cluster structure, scale, and
// dimensionality.
package kmeans

import (
	"fmt"

	"repro/internal/stats"
)

// CensusConfig parameterizes the synthetic census-like dataset. The
// generator models the nested structure of real demographic data: a few
// major population segments, each containing subsegments, recursively,
// with amplitudes shrinking per level. Multi-scale structure is what
// gives K-Means on census data its smoothly decaying centroid-movement
// tail — centroids first settle the major segments (large movements),
// then keep refining ever finer subsegment structure — which is exactly
// the regime the paper's Figure 8 threshold sweep probes.
type CensusConfig struct {
	// Points is the number of records; the paper samples ~200K.
	Points int
	// Dims is the attribute count; the census sample has 68.
	Dims int
	// Segments is the number of top-level population segments.
	Segments int
	// SubBranch and SubLevels define the hierarchy: each segment splits
	// into SubBranch subsegments per level, SubLevels levels deep.
	SubBranch int
	SubLevels int
	// SubScale is the per-level amplitude decay of subsegment offsets
	// relative to the top-level code scale.
	SubScale float64
	// MaxCode is the largest attribute code (census codes are small
	// integers; most attributes have < 10 levels).
	MaxCode int
	// MutationProb is the chance an attribute deviates from its
	// segment's prototype code entirely.
	MutationProb float64
	// ContinuousNoise adds uniform [0, ContinuousNoise) sub-code
	// variation to every attribute, modeling the within-bin variability
	// that the census's binned attributes (age brackets, income bands)
	// discard.
	ContinuousNoise float64
	// Seed drives generation deterministically.
	Seed uint64
}

// DefaultCensusConfig matches the paper's input scale: "around 200K
// points each with 68 dimensions".
func DefaultCensusConfig() CensusConfig {
	return CensusConfig{
		Points:          200000,
		Dims:            68,
		Segments:        8,
		SubBranch:       3,
		SubLevels:       5,
		SubScale:        0.5,
		MaxCode:         9,
		MutationProb:    0.1,
		ContinuousNoise: 0.5,
		Seed:            0xCE0505,
	}
}

// Scaled returns the configuration with Points divided by f, for tests
// and default-size benches.
func (c CensusConfig) Scaled(f int) CensusConfig {
	if f > 1 {
		c.Points /= f
		if c.Points < c.Segments*4 {
			c.Points = c.Segments * 4
		}
	}
	return c
}

// Validate reports the first problem with the configuration.
func (c *CensusConfig) Validate() error {
	switch {
	case c.Points < 1:
		return fmt.Errorf("kmeans: Points must be >= 1, got %d", c.Points)
	case c.Dims < 1:
		return fmt.Errorf("kmeans: Dims must be >= 1, got %d", c.Dims)
	case c.Segments < 1 || c.Segments > c.Points:
		return fmt.Errorf("kmeans: Segments must be in [1,Points], got %d", c.Segments)
	case c.MaxCode < 1:
		return fmt.Errorf("kmeans: MaxCode must be >= 1, got %d", c.MaxCode)
	case !(c.MutationProb >= 0 && c.MutationProb <= 1):
		return fmt.Errorf("kmeans: MutationProb must be in [0,1], got %g", c.MutationProb)
	case !(c.ContinuousNoise >= 0):
		return fmt.Errorf("kmeans: ContinuousNoise must be >= 0, got %g", c.ContinuousNoise)
	case c.SubBranch < 0 || c.SubLevels < 0:
		return fmt.Errorf("kmeans: SubBranch/SubLevels must be >= 0, got %d/%d", c.SubBranch, c.SubLevels)
	case c.SubLevels > 0 && c.SubBranch < 2:
		return fmt.Errorf("kmeans: SubBranch must be >= 2 when SubLevels > 0, got %d", c.SubBranch)
	case !(c.SubScale >= 0 && c.SubScale < 1):
		return fmt.Errorf("kmeans: SubScale must be in [0,1), got %g", c.SubScale)
	}
	return nil
}

// GenerateCensus synthesizes the dataset: leaf prototypes from the
// segment hierarchy plus attribute mutations and sub-code noise, stored
// as one flat backing array sliced per point (cache-friendly, one
// allocation).
func GenerateCensus(cfg CensusConfig) ([][]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)

	// Build the prototype hierarchy level by level; each level's
	// children perturb their parent with geometrically shrinking
	// amplitude.
	level := make([][]float64, cfg.Segments)
	for s := range level {
		p := make([]float64, cfg.Dims)
		for d := range p {
			p[d] = float64(rng.Intn(cfg.MaxCode + 1))
		}
		level[s] = p
	}
	amp := float64(cfg.MaxCode) * cfg.SubScale
	for l := 0; l < cfg.SubLevels; l++ {
		next := make([][]float64, 0, len(level)*cfg.SubBranch)
		for _, parent := range level {
			for b := 0; b < cfg.SubBranch; b++ {
				child := make([]float64, cfg.Dims)
				for d := range child {
					// Perturbations may exceed the code range slightly;
					// keeping them unclamped preserves the hierarchy's
					// scale spectrum (clamping flattens the top levels
					// against the range boundary and with it the smooth
					// movement decay the threshold sweep probes).
					child[d] = parent[d] + amp*(rng.Float64()-0.5)
				}
				next = append(next, child)
			}
		}
		level = next
		amp *= cfg.SubScale
	}
	leaves := level

	backing := make([]float64, cfg.Points*cfg.Dims)
	points := make([][]float64, cfg.Points)
	for i := range points {
		row := backing[i*cfg.Dims : (i+1)*cfg.Dims]
		proto := leaves[rng.Intn(len(leaves))]
		for d := range row {
			if rng.Float64() < cfg.MutationProb {
				row[d] = float64(rng.Intn(cfg.MaxCode + 1))
			} else {
				row[d] = proto[d]
			}
			if cfg.ContinuousNoise > 0 {
				row[d] += cfg.ContinuousNoise * rng.Float64()
			}
		}
		points[i] = row
	}
	return points, nil
}
