package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestInfNormDiff(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 4, 2.5}
	if got := InfNormDiff(a, b); got != 2 {
		t.Fatalf("InfNormDiff = %g, want 2", got)
	}
}

func TestInfNormDiffPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	InfNormDiff([]float64{1}, []float64{1, 2})
}

func TestL2NormAndEuclidean(t *testing.T) {
	if got := EuclideanDistance([]float64{1, 1}, []float64{4, 5}); got != 5 {
		t.Fatalf("EuclideanDistance = %g, want 5", got)
	}
}

func TestEuclideanSymmetry(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for _, v := range append(a[:], b[:]...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		x, y := a[:], b[:]
		return almostEqual(EuclideanDistance(x, y), EuclideanDistance(y, x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEuclideanTriangleInequality(t *testing.T) {
	f := func(a, b, c [3]float64) bool {
		for _, v := range append(append(a[:], b[:]...), c[:]...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		ab := EuclideanDistance(a[:], b[:])
		bc := EuclideanDistance(b[:], c[:])
		ac := EuclideanDistance(a[:], c[:])
		return ac <= ab+bc+1e-9*(1+ac)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMedian(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g, want 0", got)
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	// y = 3 + 2x exactly.
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 + 2*x[i]
	}
	a, b, r2 := LinearFit(x, y)
	if !almostEqual(a, 3, 1e-9) || !almostEqual(b, 2, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Fatalf("LinearFit = (%g,%g,%g), want (3,2,1)", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if a, b, r2 := LinearFit([]float64{1}, []float64{2}); a != 0 || b != 0 || r2 != 0 {
		t.Fatal("single point should return zeros")
	}
	// Zero x-variance.
	a, b, _ := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if b != 0 || a != 2 {
		t.Fatalf("constant-x fit = (%g,%g), want intercept=mean(y)=2, slope 0", a, b)
	}
}

func TestFitPowerLawOnSynthetic(t *testing.T) {
	// Sample degrees from a discrete power law p(k) ~ k^-2.5 by inverse
	// CDF on a fine grid.
	rng := NewRNG(99)
	const alpha = 2.5
	var degrees []int
	for i := 0; i < 50000; i++ {
		// Inverse transform for continuous Pareto with xmin=8, rounded;
		// the larger xmin keeps integer truncation bias small.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		k := int(8*math.Pow(u, -1/(alpha-1)) + 0.5)
		if k < 8 {
			k = 8
		}
		if k > 1000000 {
			k = 1000000
		}
		degrees = append(degrees, k)
	}
	fit := FitPowerLaw(degrees, 8)
	if math.Abs(fit.Alpha-alpha) > 0.3 {
		t.Fatalf("MLE alpha = %g, want ~%g", fit.Alpha, alpha)
	}
	if !fit.IsHeavyTailed() {
		t.Fatalf("synthetic power law not detected as heavy tailed: %+v", fit)
	}
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if fit := FitPowerLaw(nil, 1); fit.Alpha != 0 || fit.N != 0 {
		t.Fatalf("empty fit = %+v, want zero", fit)
	}
	if fit := FitPowerLaw([]int{0, -3}, 1); fit.N != 0 {
		t.Fatalf("non-positive degrees fit = %+v, want zero", fit)
	}
	// Uniform degrees are not heavy tailed.
	uniform := make([]int, 1000)
	for i := range uniform {
		uniform[i] = 5
	}
	if fit := FitPowerLaw(uniform, 1); fit.IsHeavyTailed() {
		t.Fatalf("constant degrees flagged heavy tailed: %+v", fit)
	}
}
