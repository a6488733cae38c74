package kmeans

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/stats"
)

func engine() *mapreduce.Engine {
	return mapreduce.NewEngine(cluster.New(cluster.EC2LargeCluster()))
}

func smallCensus(t *testing.T) [][]float64 {
	t.Helper()
	pts, err := GenerateCensus(DefaultCensusConfig().Scaled(50)) // 4000 points
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestGenerateCensusShape(t *testing.T) {
	cfg := DefaultCensusConfig().Scaled(100)
	pts, err := GenerateCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != cfg.Points {
		t.Fatalf("points %d, want %d", len(pts), cfg.Points)
	}
	for i, p := range pts {
		if len(p) != cfg.Dims {
			t.Fatalf("point %d has %d dims, want %d", i, len(p), cfg.Dims)
		}
		for d, v := range p {
			// Hierarchy perturbations may exceed the nominal code range
			// by up to the summed perturbation amplitudes.
			slack := float64(cfg.MaxCode) + cfg.ContinuousNoise
			if v < -slack || v > float64(cfg.MaxCode)+2*slack {
				t.Fatalf("point %d dim %d value %g out of range", i, d, v)
			}
		}
	}
}

func TestGenerateCensusDeterministic(t *testing.T) {
	cfg := DefaultCensusConfig().Scaled(200)
	a, _ := GenerateCensus(cfg)
	b, _ := GenerateCensus(cfg)
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	cfg.Seed++
	c, _ := GenerateCensus(cfg)
	same := true
	for i := range a {
		for d := range a[i] {
			if a[i][d] != c[i][d] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateCensusValidation(t *testing.T) {
	bad := []CensusConfig{
		{Points: 0, Dims: 2, Segments: 1, MaxCode: 1},
		{Points: 10, Dims: 0, Segments: 1, MaxCode: 1},
		{Points: 10, Dims: 2, Segments: 0, MaxCode: 1},
		{Points: 10, Dims: 2, Segments: 11, MaxCode: 1},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 0},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 1, MutationProb: 2},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 1, ContinuousNoise: -1},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 1, SubLevels: 1, SubBranch: 1},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 1, SubScale: 1.5},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 1, MutationProb: math.NaN()},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 1, ContinuousNoise: math.NaN()},
		{Points: 10, Dims: 2, Segments: 1, MaxCode: 1, SubScale: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := GenerateCensus(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// sse computes the clustering objective for quality comparisons.
func sse(points [][]float64, centroids [][]float64) float64 {
	total := 0.0
	for _, p := range points {
		best := math.Inf(1)
		for _, c := range centroids {
			d := stats.EuclideanDistance(p, c)
			if d*d < best {
				best = d * d
			}
		}
		total += best
	}
	return total
}

func TestGeneralConvergesAndClusters(t *testing.T) {
	pts := smallCensus(t)
	cfg := DefaultConfig(0.01)
	res, err := Run(engine(), pts, 13, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
	if len(res.Centroids) != cfg.K {
		t.Fatalf("centroids %d, want %d", len(res.Centroids), cfg.K)
	}
	// Clustering must beat the trivial single-centroid solution clearly.
	mean := make([]float64, len(pts[0]))
	for _, p := range pts {
		for d, v := range p {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(len(pts))
	}
	if got, trivial := sse(pts, res.Centroids), sse(pts, [][]float64{mean}); got > trivial*0.6 {
		t.Fatalf("clustering quality poor: sse %g vs trivial %g", got, trivial)
	}
}

func TestEagerComparableQualityFewerIterations(t *testing.T) {
	pts := smallCensus(t)
	cfg := DefaultConfig(0.01)
	gen, err := Run(engine(), pts, 13, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	eag, err := Run(engine(), pts, 13, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !eag.Stats.Converged {
		t.Fatal("eager did not converge")
	}
	genSSE, eagSSE := sse(pts, gen.Centroids), sse(pts, eag.Centroids)
	if eagSSE > genSSE*1.25 {
		t.Fatalf("eager quality much worse: %g vs %g", eagSSE, genSSE)
	}
	// At this reduced scale each partition holds only ~300 points, so
	// the eager average carries subset noise; allow modest slack. The
	// paper-shape assertion (eager well below general) lives in the
	// harness tests at realistic partition sizes.
	if eag.Stats.GlobalIterations > gen.Stats.GlobalIterations*2 {
		t.Fatalf("eager took far more global iterations: %d vs %d",
			eag.Stats.GlobalIterations, gen.Stats.GlobalIterations)
	}
	if eag.Stats.LocalIterations == 0 {
		t.Fatal("eager did no local work")
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Tighter thresholds cannot need fewer iterations (Figure 8's
	// monotone x-axis premise).
	pts := smallCensus(t)
	prev := 0
	for _, thr := range []float64{0.1, 0.01, 0.001} {
		res, err := Run(engine(), pts, 13, DefaultConfig(thr), false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.GlobalIterations < prev {
			t.Fatalf("thr=%g took %d iterations, fewer than looser threshold's %d",
				thr, res.Stats.GlobalIterations, prev)
		}
		prev = res.Stats.GlobalIterations
	}
}

func TestValidation(t *testing.T) {
	pts := smallCensus(t)
	if _, err := Run(engine(), pts, 4, Config{K: 0, Threshold: 0.1}, false); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(engine(), pts, 4, Config{K: 4, Threshold: 0}, false); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := Run(engine(), pts, 4, DefaultConfig(math.NaN()), false); err == nil {
		t.Error("NaN threshold accepted")
	}
	if _, err := Run(engine(), nil, 4, DefaultConfig(0.1), false); err == nil {
		t.Error("no points accepted")
	}
	if _, err := Run(engine(), pts, 0, DefaultConfig(0.1), false); err == nil {
		t.Error("zero partitions accepted")
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := Run(engine(), ragged, 1, DefaultConfig(0.1), false); err == nil {
		t.Error("ragged dimensions accepted")
	}
}

func TestMorePartitionsThanPoints(t *testing.T) {
	pts, err := GenerateCensus(CensusConfig{Points: 10, Dims: 4, Segments: 2, MaxCode: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0.1)
	cfg.K = 2
	res, err := Run(engine(), pts, 52, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids %d", len(res.Centroids))
	}
}

func TestDeterministicRuns(t *testing.T) {
	pts := smallCensus(t)
	a, err := Run(engine(), pts, 13, DefaultConfig(0.01), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(engine(), pts, 13, DefaultConfig(0.01), true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.GlobalIterations != b.Stats.GlobalIterations {
		t.Fatal("iteration counts differ across identical runs")
	}
	for c := range a.Centroids {
		for d := range a.Centroids[c] {
			if a.Centroids[c][d] != b.Centroids[c][d] {
				t.Fatal("centroids not bit-identical")
			}
		}
	}
}

func TestOscillatingDetector(t *testing.T) {
	// Period-2 series is detected.
	series := []float64{5, 4, 3, 2, 3, 2, 3, 2, 3, 2}
	if !oscillating(series, 6) {
		t.Fatal("period-2 cycle not detected")
	}
	// Decaying series is not.
	decay := []float64{5, 4, 3, 2, 1, 0.5, 0.25, 0.12, 0.06, 0.03}
	if oscillating(decay, 6) {
		t.Fatal("decaying series flagged as oscillation")
	}
	// Plateau is detected.
	plateau := []float64{5, 1, 1.01, 1.02, 0.99, 1.0, 1.01, 0.995}
	if !oscillating(plateau, 6) {
		t.Fatal("plateau not detected")
	}
	// Short history: never.
	if oscillating([]float64{1, 1}, 6) {
		t.Fatal("short history flagged")
	}
}

func TestNearestProperty(t *testing.T) {
	f := func(raw [6][3]float64, praw [3]float64) bool {
		cents := make([]float64, 0, 18)
		for _, r := range raw {
			for _, v := range r {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return true
				}
			}
			cents = append(cents, r[:]...)
		}
		p := praw[:]
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		got := nearestFlat(cents, 3, p)
		// Brute force.
		best, bestD := 0, math.Inf(1)
		for c := range raw {
			d := stats.EuclideanDistance(cents[3*c:3*c+3], p)
			if d*d < bestD {
				best, bestD = c, d*d
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCentroidMovementNormalization(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{1, 1, 1, 1}
	// Euclidean distance 2, dims 4 => normalized 1.
	if got := centroidMovement(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("movement = %g, want 1", got)
	}
	if centroidMovement(nil, nil) != 0 {
		t.Fatal("empty movement not zero")
	}
}

func TestAssignPointsPartitionsAll(t *testing.T) {
	pts := smallCensus(t)
	states := make([]*state, 7)
	for i := range states {
		states[i] = &state{}
	}
	perm := stats.NewRNG(3).Perm(len(pts))
	assignPoints(states, pts, perm)
	seen := make([]bool, len(pts))
	total := 0
	for _, st := range states {
		total += len(st.idx)
		for _, pi := range st.idx {
			if seen[pi] {
				t.Fatalf("point %d assigned twice", pi)
			}
			seen[pi] = true
		}
		if len(st.idx) != len(st.points) {
			t.Fatal("idx/points length mismatch")
		}
	}
	if total != len(pts) {
		t.Fatalf("assigned %d of %d points", total, len(pts))
	}
}
