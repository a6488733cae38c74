package kmeans

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// accum is the job's value: a running vector sum of the points assigned
// to one centroid plus their count. Map tasks emit partial accumulators,
// the reduce folds them, and the job's driver divides to obtain
// centroids.
type accum struct {
	Sum   []float64
	Count int64
}

// buildJob is one global iteration as the MapReduce job the native run
// models, with gmap as its map: the general formulation's is generalMap.
// The reduce, which folds accumulators per centroid, is shared between
// formulations.
func buildJob(dims int, gmap mapreduce.MapFunc[*state, int64, accum]) *mapreduce.Job[*state, int64, accum] {
	return &mapreduce.Job[*state, int64, accum]{
		Name:      "kmeans",
		Map:       gmap,
		Partition: mapreduce.Int64Partition,
		RecordSize: func(_ int64, v accum) int64 {
			return 16 + int64(8*len(v.Sum))
		},
		Reduce: func(ctx *mapreduce.TaskContext[int64, accum], key int64, values []accum) {
			total := accum{Sum: make([]float64, dims)}
			for _, a := range values {
				for d, x := range a.Sum {
					total.Sum[d] += x
				}
				total.Count += a.Count
			}
			ctx.Charge(int64(len(values) * dims))
			ctx.Emit(key, total)
		},
	}
}

// generalMap performs one synchronous assignment sweep with the nested
// model of assign: each point picks its nearest input centroid, and the
// task emits, in cluster order, one partial accumulator per centroid
// with members (the in-mapper aggregation Mahout's implementation
// achieves with combiners), charging k·dims operations a point.
func generalMap(ctx *mapreduce.TaskContext[int64, accum], split mapreduce.Split[*state]) {
	st := split.Data
	dims := len(st.points[0])
	centroids := make([][]float64, len(st.centroids)/dims)
	for c := range centroids {
		centroids[c] = st.centroids[c*dims : (c+1)*dims]
	}
	sums, counts := nestedAssign(centroids, st.points)
	ctx.Charge(int64(len(st.points) * len(st.centroids)))
	for c, n := range counts {
		if n > 0 {
			ctx.Emit(int64(c), accum{Sum: sums[c], Count: n})
		}
	}
}

// runEngine is Run as the MapReduce jobs it models, core.Iterate around
// mapreduce.Run: job is one iteration's. Between iterations it folds the
// reduce's accumulators into new centroids, an empty cluster keeping its
// center, copies them into every partition, and in the eager formulation
// repartitions the points as Run does.
func runEngine(engine *mapreduce.Engine, points [][]float64, numParts int, cfg Config, eager bool, job *mapreduce.Job[*state, int64, accum]) (*Result, error) {
	numParts, dims, err := prepare(points, numParts, cfg)
	if err != nil {
		return nil, err
	}
	centroids, perm, rng := seed(points, cfg, dims)
	states := make([]*state, numParts)
	for i := range states {
		states[i] = &state{centroids: append([]float64(nil), centroids...)}
	}
	assignPoints(states, points, perm)
	splits := make([]mapreduce.Split[*state], numParts)
	res := &Result{}
	var history []float64
	next := make([]float64, len(centroids))
	stats, err := core.Iterate(func(iter int) (mapreduce.Cost, bool, error) {
		for i, st := range states {
			splits[i] = mapreduce.Split[*state]{Data: st, Records: int64(len(st.points)), Bytes: int64(len(st.points) * dims * 8)}
		}
		out, err := mapreduce.Run(engine, job, splits)
		if err != nil {
			return mapreduce.Cost{}, false, err
		}
		copy(next, centroids)
		for _, kv := range out.Output {
			for d, x := range kv.Value.Sum {
				next[int(kv.Key)*dims+d] = x / float64(kv.Value.Count)
			}
		}
		movement := 0.0
		for base := 0; base < len(next); base += dims {
			if m := centroidMovement(next[base:base+dims], centroids[base:base+dims]); m > movement {
				movement = m
			}
		}
		centroids, next = next, centroids
		for _, st := range states {
			copy(st.centroids, centroids)
		}
		if movement < cfg.Threshold {
			return out.Cost, true, nil
		}
		history = append(history, movement)
		if cfg.OscillationWindow > 1 && oscillating(history, cfg.OscillationWindow) {
			res.OscillationStop = true
			return out.Cost, true, nil
		}
		if eager && cfg.ReshuffleEvery > 0 && iter%cfg.ReshuffleEvery == 0 && movement > 10*cfg.Threshold {
			assignPoints(states, points, rng.Perm(len(points)))
		}
		return out.Cost, false, nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	for c := 0; c < cfg.K; c++ {
		res.Centroids = append(res.Centroids, centroids[c*dims:(c+1)*dims])
	}
	return res, nil
}

// runOracle is runEngine with each formulation's job: generalMap for the
// general one, the lmap/lreduce program (eagerSpec) for the eager one.
func runOracle(engine *mapreduce.Engine, points [][]float64, numParts int, cfg Config, eager bool) (*Result, error) {
	dims := len(points[0])
	job := buildJob(dims, generalMap)
	if eager {
		job.Map = core.BuildGMap(eagerSpec(cfg, dims, new(sync.Map)))
	}
	return runEngine(engine, points, numParts, cfg, eager, job)
}

// oracleCase is one configuration and cluster of the oracles' matrix:
// the points in parts partitions on config's cluster (EC2 when nil).
type oracleCase struct {
	name   string
	parts  int
	cfg    Config
	config func() *cluster.Config
}

// engine returns a new engine on the case's cluster.
func (c oracleCase) engine() *mapreduce.Engine {
	if c.config == nil {
		return engine()
	}
	return mapreduce.NewEngine(cluster.New(c.config()))
}

// clusterVariants are the presets the oracles add to EC2: EC2 replaying
// one task attempt in twenty, and HPC, which draws no straggler, with
// EC2's jitter.
var clusterVariants = []struct {
	name   string
	config func() *cluster.Config
}{
	{"ec2 failing 5%", func() *cluster.Config {
		c := cluster.EC2LargeCluster()
		c.FailureProb = 0.05
		return c
	}},
	{"hpc with ec2 jitter", func() *cluster.Config {
		c := cluster.HPCCluster()
		c.StragglerJitter = cluster.EC2LargeCluster().StragglerJitter
		return c
	}},
}

// specCases is the engine oracles' matrix: on EC2, partition counts from
// 3 to 52, local iterations uncapped and capped, reshuffles on and off,
// and thresholds from 0.1 to 1e-4; then the first case, in 13 parts, on
// the clusterVariants.
func specCases() []oracleCase {
	var cases []oracleCase
	for _, c := range []struct {
		parts, maxLocal, reshuffle int
		threshold                  float64
	}{
		{13, 8, 5, 0.01},
		{13, 0, 0, 0.1},
		{52, 1, 2, 1e-3},
		{3, 3, 5, 1e-4},
		{7, 8, 0, 1e-4},
	} {
		cfg := DefaultConfig(c.threshold)
		cfg.MaxLocalIters, cfg.ReshuffleEvery = c.maxLocal, c.reshuffle
		name := fmt.Sprintf("%d parts/MaxLocalIters %d/ReshuffleEvery %d/threshold %g", c.parts, c.maxLocal, c.reshuffle, c.threshold)
		cases = append(cases, oracleCase{name, c.parts, cfg, nil})
	}
	for _, v := range clusterVariants {
		c := cases[0]
		c.name += "/" + v.name
		c.config = v.config
		cases = append(cases, c)
	}
	return cases
}

// sameRun fails unless got has want's centroids bit for bit, its run
// statistics and its oscillation verdict.
func sameRun(t *testing.T, got, want *Result, oracle string) {
	t.Helper()
	for i := range want.Centroids {
		for d, w := range want.Centroids[i] {
			if g := got.Centroids[i][d]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("centroid %d dim %d: %v, %s %v", i, d, g, oracle, w)
			}
		}
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) || got.OscillationStop != want.OscillationStop {
		t.Fatalf("run statistics differ: %+v (oscillation stop %v), %s %+v (%v)",
			*got.Stats, got.OscillationStop, oracle, *want.Stats, want.OscillationStop)
	}
}

// TestGeneralMatchesEngine: the general formulation's native global
// iterations give the centroids, the run statistics (iterations, shuffle
// records, replayed attempts, simulated time to the bit) and the
// oscillation verdict that its job through mapreduce.Run (generalMap)
// gives, over specCases.
func TestGeneralMatchesEngine(t *testing.T) {
	pts := smallCensus(t)
	for _, c := range specCases() {
		t.Run(c.name, func(t *testing.T) {
			got, err := Run(c.engine(), pts, c.parts, c.cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runOracle(c.engine(), pts, c.parts, c.cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, got, want, "the engine")
		})
	}
}

// FuzzGlobalIterationsMatchOracle holds both formulations to their jobs
// through the engine (runOracle) on inputs decoded from the fuzz
// arguments, bit for bit in centroids, run statistics and oscillation
// verdict. Every D = 1+dims%4 bytes of coords are one point, up to 256,
// each byte a coordinate of int8(b)/4, so exact ties and coinciding
// points are common; then K is 1 to 8, the partition count 1 to 16 (more than the
// points clamps), MaxLocalIters 0 to 3, ReshuffleEvery 0 to 3, δ one of
// 0.1, 0.01, 1e-3 and 1e-4, and the cluster EC2 or one of the
// clusterVariants.
func FuzzGlobalIterationsMatchOracle(f *testing.F) {
	rng := stats.NewRNG(9)
	random := make([]byte, 600)
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(2), uint8(3), uint8(4), uint8(0), uint8(2), uint8(1), uint8(0))
	f.Add(random, uint8(3), uint8(7), uint8(12), uint8(2), uint8(1), uint8(3), uint8(1))
	f.Add(random[:200], uint8(0), uint8(5), uint8(3), uint8(3), uint8(3), uint8(2), uint8(2))
	f.Add([]byte("aaaaaaaabbbb"), uint8(1), uint8(4), uint8(15), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, coords []byte, dims, k, parts, maxLocal, reshuffle, delta, variant uint8) {
		D := 1 + int(dims%4)
		var points [][]float64
		for len(coords) >= D && len(points) < 256 {
			p := make([]float64, D)
			for d := range p {
				p[d] = float64(int8(coords[d])) / 4
			}
			points, coords = append(points, p), coords[D:]
		}
		if len(points) == 0 {
			return
		}
		c := oracleCase{parts: 1 + int(parts%16), cfg: DefaultConfig([]float64{0.1, 0.01, 1e-3, 1e-4}[delta%4])}
		c.cfg.K = 1 + int(k%8)
		c.cfg.MaxLocalIters, c.cfg.ReshuffleEvery = int(maxLocal%4), int(reshuffle%4)
		if v := int(variant % 3); v > 0 {
			c.config = clusterVariants[v-1].config
		}
		for _, eager := range []bool{false, true} {
			got, err := Run(c.engine(), points, c.parts, c.cfg, eager)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runOracle(c.engine(), points, c.parts, c.cfg, eager)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, got, want, fmt.Sprintf("the engine (eager %v)", eager))
		}
	})
}
