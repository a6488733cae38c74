package mapreduce

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// testEngine runs on one EC2 node without failures or stragglers, so
// queueing effects and stochastic draws vanish.
func testEngine() *Engine {
	cfg := cluster.EC2LargeCluster()
	cfg.Nodes, cfg.FailureProb, cfg.StragglerJitter = 1, 0, 0
	return NewEngine(cluster.New(cfg))
}

func ec2Engine() *Engine {
	return NewEngine(cluster.New(cluster.EC2LargeCluster()))
}

// wordCount is the canonical MapReduce smoke test: split sentences, count
// words.
func wordCountJob() *Job[string, string, int] {
	return &Job[string, string, int]{
		Name: "wordcount",
		Map: func(ctx *TaskContext[string, int], split Split[string]) {
			for _, w := range strings.Fields(split.Data) {
				ctx.Emit(w, 1)
			}
		},
		Reduce: func(ctx *TaskContext[string, int], key string, values []int) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			ctx.Emit(key, sum)
		},
	}
}

func textSplits(lines ...string) []Split[string] {
	splits := make([]Split[string], len(lines))
	for i, l := range lines {
		splits[i] = Split[string]{Data: l, Records: 1, Bytes: int64(len(l))}
	}
	return splits
}

func TestWordCount(t *testing.T) {
	res, err := Run(testEngine(), wordCountJob(), textSplits(
		"the quick brown fox",
		"the lazy dog and the quick cat",
	))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, kv := range res.Output {
		counts[kv.Key] += kv.Value
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 1, "and": 1, "cat": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, counts[k], v)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("got %d distinct words, want %d", len(counts), len(want))
	}
}

func TestDurationPositiveAndClockAdvances(t *testing.T) {
	e := testEngine()
	res, err := Run(e, wordCountJob(), textSplits("a b c"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Fatal("job took no simulated time")
	}
	// Job overhead is part of the total.
	if res.Duration < cluster.EC2LargeCluster().JobOverhead {
		t.Fatal("duration less than job overhead")
	}
}

func TestCombinerReducesShuffleNotOutput(t *testing.T) {
	splits := textSplits("a a a a b", "a b b b b")
	plain, err := Run(testEngine(), wordCountJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	withComb := wordCountJob()
	withComb.Combine = func(key string, values []int) []int {
		sum := 0
		for _, v := range values {
			sum += v
		}
		return []int{sum}
	}
	combined, err := Run(testEngine(), withComb, splits)
	if err != nil {
		t.Fatal(err)
	}
	if combined.ShuffleRecords >= plain.ShuffleRecords {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d",
			combined.ShuffleRecords, plain.ShuffleRecords)
	}
	// Results identical.
	pc, cc := map[string]int{}, map[string]int{}
	for _, kv := range plain.Output {
		pc[kv.Key] += kv.Value
	}
	for _, kv := range combined.Output {
		cc[kv.Key] += kv.Value
	}
	for k, v := range pc {
		if cc[k] != v {
			t.Errorf("combiner changed result for %q: %d vs %d", k, cc[k], v)
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	job := &Job[int, int64, int]{
		Name: "maponly",
		Map: func(ctx *TaskContext[int64, int], split Split[int]) {
			ctx.Emit(int64(split.Data), split.Data*10)
		},
	}
	splits := []Split[int]{{Data: 1, Records: 1}, {Data: 2, Records: 1}}
	res, err := Run(testEngine(), job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reduces) != 0 || res.ShuffleRecords != 0 {
		t.Fatalf("map-only job ran reduces: %+v", res)
	}
	if len(res.Output) != 2 {
		t.Fatalf("output %v", res.Output)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	job := wordCountJob()
	splits := textSplits("x y z x", "y x w", "w w w")
	a, err := Run(ec2Engine(), job, splits)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ec2Engine(), job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if len(a.Output) != len(b.Output) {
		t.Fatal("output lengths differ")
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatalf("output order differs at %d: %v vs %v", i, a.Output[i], b.Output[i])
		}
	}
}

func TestPanicsInUserCodeBecomeErrors(t *testing.T) {
	job := &Job[string, string, int]{
		Name: "boom",
		Map: func(ctx *TaskContext[string, int], split Split[string]) {
			panic("mapper exploded")
		},
		Reduce: func(ctx *TaskContext[string, int], key string, values []int) {},
	}
	_, err := Run(testEngine(), job, textSplits("a"))
	if err == nil || !strings.Contains(err.Error(), "mapper exploded") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

func TestReducePanicSurfaced(t *testing.T) {
	job := wordCountJob()
	job.Reduce = func(ctx *TaskContext[string, int], key string, values []int) {
		panic("reducer exploded")
	}
	_, err := Run(testEngine(), job, textSplits("a b"))
	if err == nil || !strings.Contains(err.Error(), "reducer exploded") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Run(testEngine(), &Job[string, string, int]{Name: "nil-map"}, textSplits("a")); err == nil {
		t.Fatal("nil Map accepted")
	}
	if _, err := Run(testEngine(), wordCountJob(), nil); err == nil {
		t.Fatal("empty splits accepted")
	}
	bad := wordCountJob()
	bad.NumReduces = -1
	if _, err := Run(testEngine(), bad, textSplits("a")); err == nil {
		t.Fatal("negative NumReduces accepted")
	}
	// A partitioner's answer off either end of [0, n) fails the run.
	for _, p := range []int{-1, 3, 6} {
		evil := wordCountJob()
		evil.NumReduces = 3
		evil.Partition = func(string, int) int { return p }
		want := fmt.Sprintf("mapreduce: job \"wordcount\" partitioner returned %d for 3 partitions", p)
		if _, err := Run(testEngine(), evil, textSplits("a b", "", "c")); err == nil || err.Error() != want {
			t.Fatalf("partitioner returning %d: error %v, want %q", p, err, want)
		}
	}
}

func TestFailureInjectionExtendsRuntime(t *testing.T) {
	reliable := cluster.EC2LargeCluster()
	reliable.FailureProb = 0
	reliable.StragglerJitter = 0
	flaky := cluster.EC2LargeCluster()
	flaky.FailureProb = 0.2
	flaky.StragglerJitter = 0

	splits := make([]Split[string], 64)
	for i := range splits {
		splits[i] = Split[string]{Data: "a b c d e f", Records: 6, Bytes: 64}
	}
	r1, err := Run(NewEngine(cluster.New(reliable)), wordCountJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(NewEngine(cluster.New(flaky)), wordCountJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Failures == 0 {
		t.Fatal("no failures sampled at 20% probability over 64 tasks")
	}
	if r2.Duration <= r1.Duration {
		t.Fatalf("failures did not extend runtime: %v vs %v", r2.Duration, r1.Duration)
	}
	// Output still correct under replay.
	if len(r2.Output) != len(r1.Output) {
		t.Fatal("failure replay changed output")
	}
}

func TestShuffleAccounting(t *testing.T) {
	res, err := Run(ec2Engine(), wordCountJob(), textSplits("a b", "c d"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ShuffleRecords != 4 {
		t.Fatalf("shuffle records = %d, want 4", res.ShuffleRecords)
	}
	if res.ShuffleBytes != 4*16 {
		t.Fatalf("shuffle bytes = %d, want 64 (default 16/record)", res.ShuffleBytes)
	}
}

func TestGroupByKeyPreservesFirstSeenOrder(t *testing.T) {
	records := []KV[string, int]{
		{"b", 1}, {"a", 2}, {"b", 3}, {"c", 4}, {"a", 5},
	}
	var g grouper[string, int]
	g.group(records)
	if len(g.keys) != 3 || g.keys[0] != "b" || g.keys[1] != "a" || g.keys[2] != "c" {
		t.Fatalf("key order %v", g.keys)
	}
	if got := g.values(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("group b = %v", got)
	}
	if got := g.values(1); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("group a = %v", got)
	}
	if got := g.values(2); len(got) != 1 || got[0] != 4 {
		t.Fatalf("group c = %v", got)
	}
}

// The reduce-side grouper must be allocation-free once its slabs are
// warm: regrouping same-shape input reuses keys/offs/slab and clears the
// id map in place (PR 7 alloc budget for the modes bench depends on it).
func TestGrouperSteadyStateAllocFree(t *testing.T) {
	records := []KV[string, int]{
		{"b", 1}, {"a", 2}, {"b", 3}, {"c", 4}, {"a", 5},
	}
	var g grouper[string, int]
	g.group(records) // warm the slabs
	allocs := testing.AllocsPerRun(100, func() {
		g.group(records)
	})
	if allocs != 0 {
		t.Fatalf("steady-state grouper allocates %v allocs/run, want 0", allocs)
	}
}

// Property: reduce over the engine computes the same sums as a direct
// fold, for arbitrary key/value sets.
func TestEngineMatchesDirectFold(t *testing.T) {
	f := func(data []uint8) bool {
		if len(data) == 0 {
			return true
		}
		// Build splits of up to 8 records each; key space 0..7.
		var splits []Split[[]uint8]
		for i := 0; i < len(data); i += 8 {
			end := i + 8
			if end > len(data) {
				end = len(data)
			}
			splits = append(splits, Split[[]uint8]{Data: data[i:end], Records: int64(end - i)})
		}
		job := &Job[[]uint8, int64, int]{
			Name:      "fold",
			Partition: Int64Partition,
			Map: func(ctx *TaskContext[int64, int], split Split[[]uint8]) {
				for _, b := range split.Data {
					ctx.Emit(int64(b%8), int(b))
				}
			},
			Reduce: func(ctx *TaskContext[int64, int], key int64, values []int) {
				sum := 0
				for _, v := range values {
					sum += v
				}
				ctx.Emit(key, sum)
			},
		}
		res, err := Run(testEngine(), job, splits)
		if err != nil {
			return false
		}
		want := map[int64]int{}
		for _, b := range data {
			want[int64(b%8)] += int(b)
		}
		got := map[int64]int{}
		for _, kv := range res.Output {
			got[kv.Key] += kv.Value
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInt64Partition(t *testing.T) {
	for _, k := range []int64{0, 1, -1, 63, -100000, 1 << 40} {
		p := Int64Partition(k, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("Int64Partition(%d,7) = %d", k, p)
		}
	}
	// The extremes: |math.MinInt64| is 1<<63, which int64 cannot hold.
	for _, tc := range []struct {
		key     int64
		n, want int
	}{
		{math.MinInt64, 3, 2},
		{math.MinInt64, 16, 0},
		{math.MaxInt64, 3, 1},
		{math.MaxInt64, 16, 15},
		{-7, 3, 1},
	} {
		if got := Int64Partition(tc.key, tc.n); got != tc.want {
			t.Errorf("Int64Partition(%d, %d) = %d, want %d", tc.key, tc.n, got, tc.want)
		}
	}
}

func TestSingleWorkerFallback(t *testing.T) {
	e := testEngine()
	e.Parallelism = 1
	res, err := Run(e, wordCountJob(), textSplits("a b", "b c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Fatal("no output from serial engine")
	}
}

// A job's map-output and shuffle buffers are recycled from run to run;
// Result.Output must be the caller's own copy. Each iteration's output is
// checked after later iterations on the same Job refilled the buffers —
// with more records, with fewer, with different ones — for map-only and
// map-reduce jobs, with and without a combiner.
func TestResultOutputNotAliasedByLaterRuns(t *testing.T) {
	// Split i of iteration it, Data {it, n, i}, emits n records
	// (i*1000+j, it*100+j).
	emit := func(ctx *TaskContext[int64, int], split Split[[3]int]) {
		it, n, i := split.Data[0], split.Data[1], split.Data[2]
		for j := 0; j < n; j++ {
			ctx.Emit(int64(i*1000+j), it*100+j)
		}
	}
	jobs := map[string]*Job[[3]int, int64, int]{
		"map-only": {Name: "maponly", Map: emit},
		"map-reduce": {Name: "mapreduce", Map: emit, Partition: Int64Partition,
			Reduce: func(ctx *TaskContext[int64, int], key int64, values []int) { ctx.Emit(key, values[0]) }},
		"combined": {Name: "combined", Map: emit, Partition: Int64Partition,
			Combine: func(_ int64, values []int) []int { return values[:1] },
			Reduce:  func(ctx *TaskContext[int64, int], key int64, values []int) { ctx.Emit(key, values[0]) }},
	}
	sizes := []int{40, 40, 90, 7, 0, 64} // records per split, by iteration
	for name, job := range jobs {
		t.Run(name, func(t *testing.T) {
			engine := ec2Engine()
			var outs [][]KV[int64, int]
			for it, n := range sizes {
				splits := make([]Split[[3]int], 6)
				for i := range splits {
					splits[i] = Split[[3]int]{Data: [3]int{it, n, i}, Records: int64(n)}
				}
				res, err := Run(engine, job, splits)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Output) != len(splits)*n {
					t.Fatalf("iteration %d: %d output records, want %d", it, len(res.Output), len(splits)*n)
				}
				outs = append(outs, res.Output)
			}
			for it, out := range outs {
				for _, kv := range out {
					if j := int(kv.Key % 1000); kv.Value != it*100+j {
						t.Fatalf("iteration %d's output was overwritten by a later run: record %v, want value %d", it, kv, it*100+j)
					}
				}
			}
		})
	}
}

// Two runs of one Job at once must not share buffers either: the second
// finds the scratch taken and works in its own. The job starts cold, with
// its defaults unset, which every run resolves for itself.
func TestConcurrentRunsOfOneJob(t *testing.T) {
	job := wordCountJob()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := Run(testEngine(), job, textSplits("a b a", "b c", "a"))
				if err != nil {
					t.Error(err)
					return
				}
				counts := map[string]int{}
				for _, kv := range res.Output {
					counts[kv.Key] += kv.Value
				}
				if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 || len(counts) != 3 {
					t.Errorf("concurrent run counted %v", counts)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Groupers and reduce-output buffers live in the run scratch, so two runs
// of one Job that overlap must each hold their own. The overlap here is
// exact: the outer run's first reduce call starts an inner run of the
// same job, over other records, in the middle of walking its grouper and
// filling its output buffer.
func TestOverlappingRunsShareNoGrouperOrOutput(t *testing.T) {
	// Split data is {base, n}: the split emits keys base..base+n-1, each
	// three times, so every reduce group has three values key*10+{0,1,2}.
	var job *Job[[2]int, int64, int]
	var inner *Result[int64, int]
	splitsOver := func(base, n int) []Split[[2]int] {
		return []Split[[2]int]{{Data: [2]int{base, n}}, {Data: [2]int{base + n, n}}}
	}
	job = &Job[[2]int, int64, int]{
		Name:       "nested",
		NumReduces: 2,
		Partition:  Int64Partition,
		Map: func(ctx *TaskContext[int64, int], split Split[[2]int]) {
			for rep := 0; rep < 3; rep++ {
				for k := split.Data[0]; k < split.Data[0]+split.Data[1]; k++ {
					ctx.Emit(int64(k), k*10+rep)
				}
			}
		},
		Combine: func(_ int64, values []int) []int { return values },
		Reduce: func(ctx *TaskContext[int64, int], key int64, values []int) {
			if key == 0 && inner == nil {
				res, err := Run(testEngine(), job, splitsOver(1000, 37))
				if err != nil {
					panic(err)
				}
				inner = res
			}
			sum := 0
			for _, v := range values {
				sum += v
			}
			ctx.Emit(key, sum)
		},
	}
	check := func(name string, res *Result[int64, int], base, n int) {
		t.Helper()
		if len(res.Output) != 2*n {
			t.Fatalf("%s run: %d output records, want %d", name, len(res.Output), 2*n)
		}
		for _, kv := range res.Output {
			if kv.Key < int64(base) || kv.Key >= int64(base+2*n) || kv.Value != int(kv.Key)*30+3 {
				t.Fatalf("%s run: record %v, want key in [%d,%d) with value key*30+3", name, kv, base, base+2*n)
			}
		}
	}
	engine := testEngine()
	engine.Parallelism = 1
	for round := 0; round < 2; round++ { // cold scratch, then a recycled one
		inner = nil
		outer, err := Run(engine, job, splitsOver(0, 50))
		if err != nil {
			t.Fatal(err)
		}
		check("outer", outer, 0, 50)
		check("inner", inner, 1000, 37)
	}

	// And at the source: scratch taken twice without being returned is
	// two scratches.
	a, b := job.takeScratch(2, 2), job.takeScratch(2, 2)
	if a == b || &a.reducers[0] == &b.reducers[0] || &a.combiners[0] == &b.combiners[0] {
		t.Fatal("two overlapping runs were handed the same scratch")
	}
}

// A panicking task fails the job with an error naming it; the tasks
// around it still run, whoever claims them.
func TestPanickingTaskIsNamedWhileOthersRun(t *testing.T) {
	for _, parallelism := range []int{1, 2, 8, 64} {
		var ran atomic.Int64
		job := &Job[int, int64, int]{
			Name: "one-bad-task",
			Map: func(ctx *TaskContext[int64, int], split Split[int]) {
				if split.Data == 5 {
					panic("split five is cursed")
				}
				ran.Add(1)
			},
		}
		splits := make([]Split[int], 12)
		for i := range splits {
			splits[i].Data = i
		}
		engine := testEngine()
		engine.Parallelism = parallelism
		_, err := Run(engine, job, splits)
		if err == nil || !strings.Contains(err.Error(), "task 5 panicked") || !strings.Contains(err.Error(), "split five is cursed") {
			t.Fatalf("parallelism %d: error %v, want one naming task 5 and its panic", parallelism, err)
		}
		if ran.Load() != 11 {
			t.Fatalf("parallelism %d: %d of the 11 healthy tasks ran", parallelism, ran.Load())
		}
	}
}

// TestPriceMatchesRun: pricing the task records a Run reports, on a
// cluster seeded as the run's was, gives the run's Duration, Failures
// and the rest of its Cost, for a job with a reduce phase and a map-only
// one, on a cluster that fails one attempt in five and jitters every
// task.
func TestPriceMatchesRun(t *testing.T) {
	noisy := func() *Engine {
		cfg := cluster.EC2LargeCluster()
		cfg.FailureProb, cfg.Seed = 0.2, 7
		return NewEngine(cluster.New(cfg))
	}
	mapOnly := wordCountJob()
	mapOnly.Reduce = nil
	splits := textSplits("the quick brown fox", "jumps over", "the lazy dog and the quick cat", "", "a b c d e f g")
	for _, job := range []*Job[string, string, int]{wordCountJob(), mapOnly} {
		e, failures := noisy(), 0
		for run := range 3 { // the draws of each run follow the last's
			res, err := Run(e, job, splits)
			if err != nil {
				t.Fatal(err)
			}
			p := noisy()
			for range run {
				p.Price(res.Maps, res.Reduces)
			}
			if got := p.Price(res.Maps, res.Reduces); got != res.Cost {
				t.Fatalf("map-only %v, run %d: priced %+v, Run reported %+v", job.Reduce == nil, run, got, res.Cost)
			}
			failures += res.Failures
		}
		if failures == 0 {
			t.Fatalf("map-only %v: no failed attempt in three runs, so the test checks none", job.Reduce == nil)
		}
	}
}
