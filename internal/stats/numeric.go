package stats

import "math"

// InfNormDiff returns the infinity norm (max absolute value) of a-b: the
// paper's PageRank convergence test is an infinity-norm bound of 1e-5 on
// the per-node rank delta. It panics if the slices have different
// lengths, which always indicates a caller bug.
func InfNormDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: InfNormDiff length mismatch")
	}
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// EuclideanDistance returns the L2 distance between points a and b.
// K-Means uses this both for assignment and for the centroid-movement
// convergence threshold (paper §V-D).
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: EuclideanDistance dimension mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// LinearFit fits y = a + b*x by ordinary least squares and returns the
// intercept a, slope b and the coefficient of determination r².
// Degenerate inputs (fewer than two points, zero x-variance) return zeros.
func LinearFit(x, y []float64) (a, b, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0
	}
	n := float64(len(x))
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return my, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	// r² = explained variance fraction.
	r2 = (sxy * sxy) / (sxx * syy)
	_ = n
	return a, b, r2
}
