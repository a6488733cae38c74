package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/simtime"
)

// testEngine runs on one EC2 node without failures or stragglers, so
// queueing effects and stochastic draws vanish.
func testEngine() *mapreduce.Engine {
	cfg := cluster.EC2LargeCluster()
	cfg.Nodes, cfg.FailureProb, cfg.StragglerJitter = 1, 0, 0
	return mapreduce.NewEngine(cluster.New(cfg))
}

// counterPart is a toy partition for exercising the local runtime: a set
// of integer cells that each add 1 per local iteration until they reach
// a target; used to verify the Figure 1 gmap loop mechanics.
type counterPart struct {
	cells  []int
	target int
}

func countingSpec(maxLocal int) *LocalSpec[*counterPart, int, int64, int] {
	return &LocalSpec[*counterPart, int, int64, int]{
		Elements: func(p *counterPart) []int {
			elems := make([]int, len(p.cells))
			for i := range elems {
				elems[i] = i
			}
			return elems
		},
		LMap: func(lc *LocalContext[int64, int], p *counterPart, i int) {
			if p.cells[i] < p.target {
				lc.EmitLocalIntermediate(int64(i), 1)
			}
			lc.Charge(1)
		},
		LReduce: func(lc *LocalContext[int64, int], p *counterPart, key int64, values []int) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			lc.EmitLocal(key, p.cells[key]+sum)
		},
		Apply: func(p *counterPart, lc *LocalContext[int64, int]) {
			lc.State(func(k int64, v int) { p.cells[k] = v })
		},
		Converged: func(p *counterPart, lc *LocalContext[int64, int]) bool {
			for _, c := range p.cells {
				if c < p.target {
					return false
				}
			}
			return true
		},
		MaxLocalIters: maxLocal,
	}
}

func runCounting(t *testing.T, spec *LocalSpec[*counterPart, int, int64, int], part *counterPart) (*mapreduce.Result[int64, int], *counterPart) {
	t.Helper()
	job := &mapreduce.Job[*counterPart, int64, int]{
		Name:      "counting",
		Map:       BuildGMap(spec),
		Partition: mapreduce.Int64Partition,
		Reduce: func(ctx *mapreduce.TaskContext[int64, int], key int64, values []int) {
			for _, v := range values {
				ctx.Emit(key, v)
			}
		},
	}
	res, err := mapreduce.Run(testEngine(), job, []mapreduce.Split[*counterPart]{
		{Data: part, Records: int64(len(part.cells))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, part
}

func TestGMapRunsLocalIterationsToConvergence(t *testing.T) {
	part := &counterPart{cells: []int{0, 2, 4}, target: 5}
	res, got := runCounting(t, countingSpec(0), part)
	for i, c := range got.cells {
		if c != 5 {
			t.Fatalf("cell %d = %d, want 5", i, c)
		}
	}
	// One local sync per local iteration: the slowest cell needs 5
	// increments.
	if li := res.LocalSyncs; li != 5 {
		t.Fatalf("local iterations = %d, want 5", li)
	}
	// Output is the hashtable (last EmitLocal values).
	if len(res.Output) != 3 {
		t.Fatalf("output size %d, want 3", len(res.Output))
	}
}

func TestMaxLocalItersDegradesToGeneral(t *testing.T) {
	part := &counterPart{cells: []int{0, 0, 0}, target: 5}
	res, got := runCounting(t, countingSpec(1), part)
	// Exactly one local iteration: every cell advanced once.
	for i, c := range got.cells {
		if c != 1 {
			t.Fatalf("cell %d = %d, want 1 after capped iteration", i, c)
		}
	}
	if li := res.LocalSyncs; li != 1 {
		t.Fatalf("local iterations = %d, want 1", li)
	}
}

// TestLocalSyncsCharged: each of a gmap task's seven local
// synchronizations is priced at the cluster's LocalSyncOverhead.
func TestLocalSyncsCharged(t *testing.T) {
	run := func(overhead simtime.Duration) simtime.Duration {
		cfg := cluster.EC2LargeCluster()
		cfg.Nodes, cfg.FailureProb, cfg.StragglerJitter = 1, 0, 0
		cfg.LocalSyncOverhead = overhead
		job := &mapreduce.Job[*counterPart, int64, int]{
			Name:      "syncs",
			Map:       BuildGMap(countingSpec(0)),
			Partition: mapreduce.Int64Partition,
			Reduce:    func(ctx *mapreduce.TaskContext[int64, int], key int64, values []int) {},
		}
		part := &counterPart{cells: []int{0}, target: 7}
		res, err := mapreduce.Run(mapreduce.NewEngine(cluster.New(cfg)), job, []mapreduce.Split[*counterPart]{{Data: part, Records: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	if got := run(simtime.Second) - run(0); math.Abs(float64(got-7*simtime.Second)) > 1e-9 {
		t.Fatalf("1s local syncs added %v to the job, want 7s", got)
	}
}

func TestSpecValidation(t *testing.T) {
	valid := countingSpec(0)
	cases := []func(*LocalSpec[*counterPart, int, int64, int]){
		func(s *LocalSpec[*counterPart, int, int64, int]) { s.Elements = nil },
		func(s *LocalSpec[*counterPart, int, int64, int]) { s.LMap = nil },
		func(s *LocalSpec[*counterPart, int, int64, int]) { s.LReduce = nil },
		func(s *LocalSpec[*counterPart, int, int64, int]) { s.Converged = nil; s.MaxLocalIters = 0 },
	}
	for i, mutate := range cases {
		spec := *valid
		mutate(&spec)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid spec did not panic", i)
				}
			}()
			BuildGMap(&spec)
		}()
	}
}

func TestEmitLocalFromLMapPanics(t *testing.T) {
	spec := countingSpec(1)
	spec.LMap = func(lc *LocalContext[int64, int], p *counterPart, i int) {
		lc.EmitLocal(int64(i), 1) // illegal: writes belong to lreduce
	}
	part := &counterPart{cells: make([]int, 64), target: 1}
	job := &mapreduce.Job[*counterPart, int64, int]{
		Name:      "illegal",
		Map:       BuildGMap(spec),
		Partition: mapreduce.Int64Partition,
		Reduce:    func(ctx *mapreduce.TaskContext[int64, int], key int64, values []int) {},
	}
	_, err := mapreduce.Run(testEngine(), job, []mapreduce.Split[*counterPart]{{Data: part, Records: 1}})
	if err == nil || !strings.Contains(err.Error(), "EmitLocal") {
		t.Fatalf("EmitLocal from lmap not rejected: %v", err)
	}
}

func TestResetStatePerIteration(t *testing.T) {
	// lreduce emits only for cells below target; with reset, the
	// hashtable ends holding only the final iteration's emissions.
	part := &counterPart{cells: []int{0, 4}, target: 5}
	spec := countingSpec(0)
	spec.ResetStatePerIteration = true
	res, _ := runCounting(t, spec, part)
	// Final local iteration: only cell 0 was still below target.
	if len(res.Output) != 1 || res.Output[0].Key != 0 {
		t.Fatalf("output = %v, want only cell 0", res.Output)
	}
}

func TestLocalContextStateAccessors(t *testing.T) {
	lc := newLocalContext[int64, int]()
	if _, ok := lc.Value(1); ok {
		t.Fatal("empty hashtable returned a value")
	}
	lc.EmitLocal(1, 10)
	lc.EmitLocal(2, 20)
	lc.EmitLocal(1, 11) // overwrite keeps order
	if lc.Len() != 2 {
		t.Fatalf("Len = %d", lc.Len())
	}
	var keys []int64
	lc.State(func(k int64, v int) { keys = append(keys, k) })
	if keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("state order %v", keys)
	}
	if v, ok := lc.Value(1); !ok || v != 11 {
		t.Fatalf("Value(1) = %d,%v", v, ok)
	}
}

func TestDriverRunsToConvergence(t *testing.T) {
	// Iterative doubling: global state x doubles per iteration until
	// >= 64; Update reports convergence.
	type part struct{ x int }
	job := &mapreduce.Job[*part, int64, int]{
		Name:      "doubling",
		Partition: mapreduce.Int64Partition,
		Map: func(ctx *mapreduce.TaskContext[int64, int], split mapreduce.Split[*part]) {
			ctx.Emit(0, split.Data.x*2)
		},
		Reduce: func(ctx *mapreduce.TaskContext[int64, int], key int64, values []int) {
			for _, v := range values {
				ctx.Emit(key, v)
			}
		},
	}
	p := &part{x: 1}
	d := &Driver[*part, int64, int]{
		Engine: testEngine(),
		Job:    job,
		Update: func(iter int, out []mapreduce.KV[int64, int], splits []mapreduce.Split[*part]) (bool, error) {
			p.x = out[0].Value
			return p.x >= 64, nil
		},
	}
	stats, err := d.Run([]mapreduce.Split[*part]{{Data: p, Records: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("did not converge")
	}
	if stats.GlobalIterations != 6 { // 1->2->4->8->16->32->64
		t.Fatalf("iterations = %d, want 6", stats.GlobalIterations)
	}
	if p.x != 64 {
		t.Fatalf("x = %d, want 64", p.x)
	}
	if stats.Duration <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	// One record crosses each global synchronization; a plain map
	// function makes no local sync, and the engine no failures.
	if stats.ShuffleRecords != 6 || stats.LocalIterations != 0 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want 6 shuffled records, no local syncs, no failures", stats)
	}
}

// TestDriverMaxIterations: a run that never converges stops after
// DefaultMaxIterations global iterations and reports Converged false.
func TestDriverMaxIterations(t *testing.T) {
	type part struct{}
	job := &mapreduce.Job[*part, int64, int]{
		Name:      "forever",
		Partition: mapreduce.Int64Partition,
		Map:       func(ctx *mapreduce.TaskContext[int64, int], split mapreduce.Split[*part]) { ctx.Emit(0, 1) },
		Reduce:    func(ctx *mapreduce.TaskContext[int64, int], key int64, values []int) {},
	}
	d := &Driver[*part, int64, int]{
		Engine: testEngine(),
		Job:    job,
		Update: func(int, []mapreduce.KV[int64, int], []mapreduce.Split[*part]) (bool, error) {
			return false, nil
		},
	}
	stats, err := d.Run([]mapreduce.Split[*part]{{Data: &part{}, Records: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged || stats.GlobalIterations != DefaultMaxIterations {
		t.Fatalf("stats = %+v, want %d non-converged iterations", stats, DefaultMaxIterations)
	}
}

func TestDriverValidation(t *testing.T) {
	d := &Driver[*counterPart, int64, int]{}
	if _, err := d.Run(nil); err == nil {
		t.Fatal("empty driver accepted")
	}
}

// TestDriverRecyclesOutput: the driver hands each iteration's output back
// to the job once Update has returned, so the next iteration fills the
// same backing array — with its own records only, also when it emits
// fewer — while a run of the same job made inside Update, when the driver's
// output is still in use, gets an array of its own and leaves Update's
// alone.
func TestDriverRecyclesOutput(t *testing.T) {
	type part struct {
		it    int
		sizes []int // records emitted, by iteration
	}
	job := &mapreduce.Job[*part, int64, int]{
		Name:      "recycling",
		Partition: mapreduce.Int64Partition,
		Map: func(ctx *mapreduce.TaskContext[int64, int], split mapreduce.Split[*part]) {
			p := split.Data
			for j := 0; j < p.sizes[p.it]; j++ {
				ctx.Emit(int64(j), p.it*1000+j)
			}
		},
		Reduce: func(ctx *mapreduce.TaskContext[int64, int], key int64, values []int) { ctx.Emit(key, values[0]) },
	}
	holdsOnly := func(out []mapreduce.KV[int64, int], it, n int) {
		t.Helper()
		if len(out) != n {
			t.Fatalf("iteration %d: %d output records, want %d", it, len(out), n)
		}
		for _, kv := range out {
			if kv.Value != it*1000+int(kv.Key) {
				t.Fatalf("iteration %d's output holds record %v of another run", it, kv)
			}
		}
	}
	engine := testEngine()
	p := &part{sizes: []int{40, 40, 25, 40}}
	splits := []mapreduce.Split[*part]{{Data: p, Records: 1}}
	var arrays []*mapreduce.KV[int64, int]
	d := &Driver[*part, int64, int]{
		Engine: engine,
		Job:    job,
		Update: func(iter int, out []mapreduce.KV[int64, int], _ []mapreduce.Split[*part]) (bool, error) {
			holdsOnly(out, p.it, p.sizes[p.it])
			arrays = append(arrays, &out[0])
			if iter == 2 {
				nested, err := mapreduce.Run(engine, job, splits)
				if err != nil {
					return false, err
				}
				if &nested.Output[0] == &out[0] {
					t.Fatal("a run inside Update was given the array Update is reading")
				}
				holdsOnly(out, p.it, p.sizes[p.it])
			}
			p.it++
			return p.it == len(p.sizes), nil
		},
	}
	if _, err := d.Run(splits); err != nil {
		t.Fatal(err)
	}
	for it := 1; it < len(arrays); it++ {
		if arrays[it] != arrays[0] {
			t.Fatalf("iteration %d's output is not in iteration 0's backing array", it)
		}
	}
}
