package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// Reuse isolation: BuildGMap hands a task a context that served other
// tasks before it, over other key sets. Nothing of those tasks may be
// visible: the hashtable starts empty, Value misses for every key, and
// the default Output emits this task's entries only.

// keysPart is a partition whose lmap emits (k, k+bias) for each of its
// keys, twice (two local iterations), and folds by sum. On its first
// lmap call it records what it can see of earlier tasks; failAt, if
// non-negative, makes lmap panic at that element of the second
// iteration, when the intermediate buffer is half full and the hashtable
// holds the first iteration's results.
type keysPart struct {
	keys   []int64
	bias   int
	failAt int

	iter  int
	leaks []string
}

// universe bounds the keys the isolation tests use and probe.
const universe = 48

func keysSpec(indexed bool) *LocalSpec[*keysPart, int, int64, int] {
	spec := &LocalSpec[*keysPart, int, int64, int]{
		Elements: func(p *keysPart) []int {
			elems := make([]int, len(p.keys))
			for i := range elems {
				elems[i] = i
			}
			return elems
		},
		LMap: func(lc *LocalContext[int64, int], p *keysPart, e int) {
			if p.iter == 1 && e == p.failAt {
				panic("keysPart: injected lmap failure")
			}
			lc.EmitLocalIntermediate(p.keys[e], int(p.keys[e])+p.bias)
		},
		LReduce: func(lc *LocalContext[int64, int], p *keysPart, key int64, values []int) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			lc.EmitLocal(key, sum)
		},
		Apply:         func(p *keysPart, _ *LocalContext[int64, int]) { p.iter++ },
		MaxLocalIters: 2,
	}
	if indexed {
		spec.KeyIndex = func(k int64) int { return int(k) }
	}
	return spec
}

// leaksInto lists everything of earlier tasks a freshly armed context
// still shows.
func leaksInto(lc *LocalContext[int64, int]) []string {
	var leaks []string
	if lc.Len() != 0 {
		leaks = append(leaks, fmt.Sprintf("Len() = %d", lc.Len()))
	}
	for k := int64(0); k < universe; k++ {
		if v, ok := lc.Value(k); ok {
			leaks = append(leaks, fmt.Sprintf("Value(%d) = %d", k, v))
		}
	}
	lc.State(func(k int64, v int) { leaks = append(leaks, fmt.Sprintf("State has %d = %d", k, v)) })
	if lc.LocalIterations() != 0 {
		leaks = append(leaks, fmt.Sprintf("LocalIterations() = %d", lc.LocalIterations()))
	}
	return leaks
}

// wantOutput is the default Output of a healthy keysPart task: each key
// once, in key-list order, holding the second iteration's value.
func wantOutput(p *keysPart) []mapreduce.KV[int64, int] {
	out := make([]mapreduce.KV[int64, int], len(p.keys))
	for i, k := range p.keys {
		out[i] = mapreduce.KV[int64, int]{Key: k, Value: int(k) + p.bias}
	}
	return out
}

func span(lo, hi int64) []int64 {
	keys := make([]int64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	return keys
}

// runOn arms lc for a fresh task over p (as BuildGMap's MapFunc does for
// a pooled context), records what leaked in, runs the task and returns
// its global emission. A panic in user code comes back as panicked.
func runOn(spec *LocalSpec[*keysPart, int, int64, int], lc *LocalContext[int64, int], p *keysPart) (out []mapreduce.KV[int64, int], panicked any) {
	job := &mapreduce.Job[*keysPart, int64, int]{
		Name: "keys",
		Map: func(tc *mapreduce.TaskContext[int64, int], split mapreduce.Split[*keysPart]) {
			defer func() { panicked = recover() }()
			lc.arm(tc)
			split.Data.leaks = leaksInto(lc)
			runTask(spec, lc, tc, split.Data)
		},
	}
	res, err := mapreduce.Run(testEngine(), job, []mapreduce.Split[*keysPart]{{Data: p}})
	if err != nil {
		panic(err)
	}
	return res.Output, panicked
}

func TestRearmedContextStartsEmpty(t *testing.T) {
	// Each task meets the tables of all the tasks before it: an
	// overlapping larger key set, a subset, a disjoint set, the empty set.
	tasks := []*keysPart{
		{keys: span(0, 8), bias: 100},
		{keys: span(4, 40), bias: 200},
		{keys: []int64{6, 5}, bias: 300},
		{keys: span(40, 48), bias: 400},
		{keys: nil, bias: 500},
		{keys: []int64{47, 0, 23}, bias: 600},
	}
	for _, indexed := range []bool{false, true} {
		spec := keysSpec(indexed)
		lc := spec.newContext(nil)
		for i, task := range tasks {
			p := &keysPart{keys: task.keys, bias: task.bias, failAt: -1}
			out, panicked := runOn(spec, lc, p)
			if panicked != nil {
				t.Fatalf("indexed %v task %d: panic: %v", indexed, i, panicked)
			}
			if len(p.leaks) != 0 {
				t.Fatalf("indexed %v task %d: earlier tasks leak into a re-armed context: %v", indexed, i, p.leaks)
			}
			if want := wantOutput(p); !slices.Equal(out, want) {
				t.Fatalf("indexed %v task %d: output %v, want %v", indexed, i, out, want)
			}
		}
	}
}

func TestRearmAfterLMapPanic(t *testing.T) {
	// The failing task dies in its second lmap phase: hashtable full of
	// iteration-one results, intermediate log half written. arm must make
	// that context as good as new.
	for _, indexed := range []bool{false, true} {
		spec := keysSpec(indexed)
		lc := spec.newContext(nil)
		bad := &keysPart{keys: span(0, 32), bias: 100, failAt: 19}
		if _, panicked := runOn(spec, lc, bad); panicked == nil {
			t.Fatalf("indexed %v: injected lmap failure did not surface", indexed)
		}
		good := &keysPart{keys: span(10, 24), bias: 200, failAt: -1}
		out, panicked := runOn(spec, lc, good)
		if panicked != nil {
			t.Fatalf("indexed %v: task after a panic: %v", indexed, panicked)
		}
		if len(good.leaks) != 0 {
			t.Fatalf("indexed %v: the failed task leaks into the next: %v", indexed, good.leaks)
		}
		if want := wantOutput(good); !slices.Equal(out, want) {
			t.Fatalf("indexed %v: output %v, want %v", indexed, out, want)
		}
	}
}

// The same through BuildGMap's own pool: a job whose task panicked keeps
// serving later runs correctly, whether the pool hands the next task the
// survivor of an earlier run or a new context.
func TestBuildGMapSurvivesPanickedTask(t *testing.T) {
	spec := keysSpec(true)
	job := &mapreduce.Job[*keysPart, int64, int]{Name: "keys", Map: BuildGMap(spec)}
	engine := testEngine()
	engine.Parallelism = 1
	run := func(p *keysPart) ([]mapreduce.KV[int64, int], error) {
		res, err := mapreduce.Run(engine, job, []mapreduce.Split[*keysPart]{{Data: p}})
		if err != nil {
			return nil, err
		}
		return res.Output, nil
	}
	first := &keysPart{keys: span(0, 40), bias: 100, failAt: -1}
	if out, err := run(first); err != nil || !slices.Equal(out, wantOutput(first)) {
		t.Fatalf("first run: %v %v", out, err)
	}
	bad := &keysPart{keys: span(8, 40), bias: 200, failAt: 17}
	if _, err := run(bad); err == nil || !strings.Contains(err.Error(), "injected lmap failure") {
		t.Fatalf("injected lmap failure not reported: %v", err)
	}
	for i := 0; i < 3; i++ {
		p := &keysPart{keys: span(int64(3*i), int64(3*i+5)), bias: 300 + i, failAt: -1}
		if out, err := run(p); err != nil || !slices.Equal(out, wantOutput(p)) {
			t.Fatalf("run %d after the panic: %v %v, want %v", i, out, err, wantOutput(p))
		}
	}
}

// A negative KeyIndex is found where slots are resolved, at the barrier
// that groups the iteration's log: still inside the task, so the job
// fails with an error naming the task, the index and the key. The second
// run meets the index in an iteration that was replaying a healthy plan.
func TestNegativeKeyIndexPanicsNamingTheKey(t *testing.T) {
	spec := keysSpec(true)
	spec.KeyIndex = func(k int64) int { return int(k) - 1000 }
	job := &mapreduce.Job[*keysPart, int64, int]{Name: "keys", Map: BuildGMap(spec)}
	engine := testEngine()
	engine.Parallelism = 1
	for _, keys := range [][]int64{{1001, 993}, {1001, 1002, 1003}, {1001, 1002, 993}} {
		_, err := mapreduce.Run(engine, job, []mapreduce.Split[*keysPart]{{Data: &keysPart{keys: keys, failAt: -1}}})
		if !slices.Contains(keys, 993) {
			if err != nil {
				t.Fatalf("keys %v: %v", keys, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("keys %v: a negative KeyIndex went unnoticed", keys)
		}
		for _, want := range []string{"task 0", "KeyIndex", "-7", "993"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("keys %v: error %q does not name %q", keys, err, want)
			}
		}
	}
}
