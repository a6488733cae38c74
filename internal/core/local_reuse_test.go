package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// Task isolation: every task a BuildGMap gmap serves starts from an empty
// context, whatever the tasks before it emitted or however they failed.
// Nothing of those tasks may be visible: the hashtable starts empty,
// Value misses for every key, and the default Output emits this task's
// entries only.

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

func keysSpec() *LocalSpec[*keysPart, int, int64, int] {
	return &LocalSpec[*keysPart, int, int64, int]{
		Elements: func(p *keysPart) []int {
			elems := make([]int, len(p.keys))
			for i := range elems {
				elems[i] = i
			}
			return elems
		},
		LMap: func(lc *LocalContext[int64, int], p *keysPart, e int) {
			if p.iter == 0 && e == 0 {
				p.leaks = leaksInto(lc)
			}
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
}

// leaksInto lists everything of earlier tasks a task's context shows.
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

// keysRunner returns a function running one keysPart task at a time
// through one BuildGMap gmap and one engine.
func keysRunner() func(p *keysPart) ([]mapreduce.KV[int64, int], error) {
	job := &mapreduce.Job[*keysPart, int64, int]{Name: "keys", Map: BuildGMap(keysSpec())}
	engine := testEngine()
	return func(p *keysPart) ([]mapreduce.KV[int64, int], error) {
		res, err := mapreduce.Run(engine, job, []mapreduce.Split[*keysPart]{{Data: p}})
		if err != nil {
			return nil, err
		}
		return res.Output, nil
	}
}

func TestRearmedContextStartsEmpty(t *testing.T) {
	// Each task follows all the tasks before it: an overlapping larger
	// key set, a subset, a disjoint set, the empty set.
	run := keysRunner()
	for i, task := range []*keysPart{
		{keys: span(0, 8), bias: 100},
		{keys: span(4, 40), bias: 200},
		{keys: []int64{6, 5}, bias: 300},
		{keys: span(40, 48), bias: 400},
		{keys: nil, bias: 500},
		{keys: []int64{47, 0, 23}, bias: 600},
	} {
		task.failAt = -1
		out, err := run(task)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if len(task.leaks) != 0 {
			t.Fatalf("task %d: earlier tasks leak into its context: %v", i, task.leaks)
		}
		if want := wantOutput(task); !slices.Equal(out, want) {
			t.Fatalf("task %d: output %v, want %v", i, out, want)
		}
	}
}

func TestRearmAfterLMapPanic(t *testing.T) {
	// The failing task dies in its second lmap phase: hashtable full of
	// iteration-one results, intermediate buffer half written. The next
	// task must not see any of it.
	run := keysRunner()
	bad := &keysPart{keys: span(0, 32), bias: 100, failAt: 19}
	if _, err := run(bad); err == nil {
		t.Fatal("injected lmap failure did not surface")
	}
	good := &keysPart{keys: span(10, 24), bias: 200, failAt: -1}
	out, err := run(good)
	if err != nil {
		t.Fatalf("task after a panic: %v", err)
	}
	if len(good.leaks) != 0 {
		t.Fatalf("the failed task leaks into the next: %v", good.leaks)
	}
	if want := wantOutput(good); !slices.Equal(out, want) {
		t.Fatalf("output %v, want %v", out, want)
	}
}

// A job whose task panicked reports the panic and keeps serving later
// runs correctly.
func TestBuildGMapSurvivesPanickedTask(t *testing.T) {
	run := keysRunner()
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
