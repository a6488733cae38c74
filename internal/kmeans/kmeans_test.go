package kmeans

import (
	"fmt"
	"math"
	"strings"
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
	if got, trivial := SSE(pts, res.Centroids), SSE(pts, [][]float64{mean}); got > trivial*0.6 {
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
	genSSE, eagSSE := SSE(pts, gen.Centroids), SSE(pts, eag.Centroids)
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

type badInput struct {
	name   string
	points [][]float64
	parts  int
	cfg    Config
}

// badInputs are inputs every formulation refuses with an error of its
// own, not a recovered task panic.
func badInputs(t *testing.T) []badInput {
	pts := smallCensus(t)
	withNaN := append([][]float64(nil), pts...)
	withNaN[17] = append([]float64(nil), pts[17]...)
	withNaN[17][3] = math.NaN()
	return []badInput{
		{"K=0", pts, 4, Config{K: 0, Threshold: 0.1}},
		{"zero threshold", pts, 4, Config{K: 4, Threshold: 0}},
		{"NaN threshold", pts, 4, DefaultConfig(math.NaN())},
		{"negative MaxLocalIters", pts, 4, Config{K: 4, Threshold: 0.1, MaxLocalIters: -1}},
		{"no points", nil, 4, DefaultConfig(0.1)},
		{"zero partitions", pts, 0, DefaultConfig(0.1)},
		{"ragged dimensions", [][]float64{{1, 2}, {1}}, 1, DefaultConfig(0.1)},
		{"zero dimensions", [][]float64{{}, {}, {}}, 2, DefaultConfig(0.1)},
		{"NaN coordinate", withNaN, 13, DefaultConfig(0.01)},
	}
}

func TestValidation(t *testing.T) {
	for _, tc := range badInputs(t) {
		for _, eager := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/eager=%v", tc.name, eager), func(t *testing.T) {
				_, err := Run(engine(), tc.points, tc.parts, tc.cfg, eager)
				if err == nil {
					t.Fatal("accepted")
				}
				if strings.Contains(err.Error(), "panicked") {
					t.Fatalf("refused by a recovered panic: %v", err)
				}
			})
		}
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
	row := make(map[*float64]int, len(pts))
	for i, p := range pts {
		row[&p[0]] = i
	}
	states := make([]*state, 7)
	for i := range states {
		states[i] = &state{}
	}
	perm := stats.NewRNG(3).Perm(len(pts))
	assignPoints(states, pts, perm)
	seen := make([]bool, len(pts))
	total := 0
	for _, st := range states {
		total += len(st.points)
		for _, p := range st.points {
			pi, ok := row[&p[0]]
			if !ok {
				t.Fatal("partition holds a row not in the dataset")
			}
			if seen[pi] {
				t.Fatalf("point %d assigned twice", pi)
			}
			seen[pi] = true
		}
	}
	if total != len(pts) {
		t.Fatalf("assigned %d of %d points", total, len(pts))
	}
}

// nestedAssign is the assignment pass in the layout the general
// formulation used before assign: per-cluster sums allocated on first
// use, integer counts, and a full squared distance per centroid, the
// lowest index winning a tie.
func nestedAssign(centroids [][]float64, points [][]float64) (sums [][]float64, counts []int64) {
	sums, counts = make([][]float64, len(centroids)), make([]int64, len(centroids))
	for _, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			d := 0.0
			for i := range p {
				diff := p[i] - cen[i]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if sums[best] == nil {
			sums[best] = make([]float64, len(p))
		}
		for d, x := range p {
			sums[best][d] += x
		}
		counts[best]++
	}
	return sums, counts
}

// FuzzAssignMatchesNested: assign's flat sums and counts equal, bit for
// bit, those of the nested model, on generated points and centroids.
// With grid set every coordinate is an integer in [-2, 2], so exact
// distance ties and coinciding centroids are common; otherwise the
// coordinates spread over [-100, 100). A dirty accumulator checks that
// assign clears what it fills.
func FuzzAssignMatchesNested(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), uint16(50), true)
	f.Add(uint64(2), uint8(7), uint8(5), uint16(199), false)
	f.Add(uint64(3), uint8(1), uint8(0), uint16(0), true)
	f.Add(uint64(4), uint8(15), uint8(1), uint16(300), true)
	f.Fuzz(func(t *testing.T, seed uint64, k, dims uint8, n uint16, grid bool) {
		rng := stats.NewRNG(seed)
		K, D, N := 1+int(k%16), 1+int(dims%8), int(n%400)
		coord := func() float64 {
			if grid {
				return float64(rng.Intn(5) - 2)
			}
			return rng.Float64()*200 - 100
		}
		points := make([][]float64, N)
		for i := range points {
			points[i] = make([]float64, D)
			for d := range points[i] {
				points[i][d] = coord()
			}
		}
		nested := make([][]float64, K)
		flat := make([]float64, 0, K*D)
		for c := range nested {
			nested[c] = make([]float64, D)
			for d := range nested[c] {
				nested[c][d] = coord()
			}
			flat = append(flat, nested[c]...)
		}
		acc := make([]float64, K*(D+1))
		for i := range acc {
			acc[i] = math.NaN()
		}
		assign(acc, flat, D, points)
		sums, counts := nestedAssign(nested, points)
		for c := 0; c < K; c++ {
			if got := acc[K*D+c]; got != float64(counts[c]) {
				t.Fatalf("cluster %d: count %v, nested %d", c, got, counts[c])
			}
			for d := 0; d < D; d++ {
				want := 0.0
				if sums[c] != nil {
					want = sums[c][d]
				}
				if got := acc[c*D+d]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cluster %d dim %d: sum %v, nested %v", c, d, got, want)
				}
			}
		}
	})
}
