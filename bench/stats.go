package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; xs is not modified. An empty
// sample has no quantile and reports NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quiet is the estimator every host timing is reported at: the fastest
// sample. The sizing host alternates, every few seconds, between a quiet
// state and one in which the same call takes a third longer, so a
// quantile of a run's samples reads one state or the other depending on
// which filled more of the run; contention only ever adds time, and the
// fastest sample of a run long enough to meet the quiet state repeats
// (README.md, "Host noise").
func quiet(xs []float64) float64 { return quantile(xs, 0) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }
