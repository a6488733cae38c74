package mapreduce

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once and its result lands at its index, for
// empty, single and uneven task counts at one, two and four goroutines.
// Each task is long enough for helpers to join.
func TestForEachTaskRunsEveryIndexOnce(t *testing.T) {
	for _, parallelism := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2, 17} {
			e := testEngine()
			e.Parallelism = parallelism
			runs := make([]atomic.Int32, n)
			out := make([]float64, n)
			if err := e.ForEachTask(n, func(i int) {
				runs[i].Add(1)
				out[i] = float64(3*i+1) + busyWork()
			}); err != nil {
				t.Fatalf("parallelism %d, n %d: %v", parallelism, n, err)
			}
			for i := range runs {
				if runs[i].Load() != 1 || out[i] != float64(3*i+1)+busyWork() {
					t.Fatalf("parallelism %d, n %d: task %d ran %d times, result %g", parallelism, n, i, runs[i].Load(), out[i])
				}
			}
		}
	}
}

// Eight goroutines calling at once, on one engine and on one engine
// each, each get their own results, and the panic each call's error
// names is its own.
func TestForEachTaskConcurrentCalls(t *testing.T) {
	for _, shared := range []bool{true, false} {
		one := testEngine()
		one.Parallelism = 4
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := one
				if !shared {
					e = testEngine()
					e.Parallelism = 4
				}
				for rep := 0; rep < 20; rep++ {
					out := make([]int, 13+g)
					err := e.ForEachTask(len(out), func(i int) {
						out[i] = g*1000 + i
						if i == g {
							panic(fmt.Sprintf("caller %d", g))
						}
					})
					if want := fmt.Sprintf("task %d panicked: caller %d", g, g); err == nil || err.Error() != want {
						t.Errorf("shared %v, caller %d: error %v, want its own", shared, g, err)
						return
					}
					for i, v := range out {
						if v != g*1000+i {
							t.Errorf("shared %v, caller %d: out[%d] = %d", shared, g, i, v)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// A task that calls ForEachTask completes, two levels deep, whether a
// helper or the caller runs it.
func TestForEachTaskNested(t *testing.T) {
	e := testEngine()
	e.Parallelism = 4
	var leaves atomic.Int64
	err := e.ForEachTask(6, func(int) {
		if err := e.ForEachTask(5, func(int) {
			if err := e.ForEachTask(3, func(int) { leaves.Add(1) }); err != nil {
				t.Errorf("innermost call: %v", err)
			}
		}); err != nil {
			t.Errorf("middle call: %v", err)
		}
	})
	if err != nil || leaves.Load() != 6*5*3 {
		t.Fatalf("nested calls: error %v, %d of %d leaf tasks ran", err, leaves.Load(), 6*5*3)
	}
}

// A helper that arrives after the caller has claimed the last task gets
// no seat and never calls fn.
func TestForEachTaskLateHelperRunsNothing(t *testing.T) {
	var calls atomic.Int32
	j := &job{fn: func(int) { calls.Add(1) }, n: 3}
	j.done.L = &j.mu
	j.work()
	if j.join() {
		t.Fatal("a helper joined a job with no task left")
	}
	j.work()
	if calls.Load() != 3 || j.active.Load() != 0 {
		t.Fatalf("%d calls for 3 tasks, %d helpers active", calls.Load(), j.active.Load())
	}
}

// Four tasks that each wait until all four have started finish at
// Parallelism 4 after a call at Parallelism 2: the helper pool grows to
// the three helpers the call asks for.
func TestForEachTaskGrowsToParallelism(t *testing.T) {
	e := testEngine()
	e.Parallelism = 2
	if err := e.ForEachTask(2, func(int) {}); err != nil {
		t.Fatal(err)
	}
	e.Parallelism = 4
	var started atomic.Int32
	deadline := time.Now().Add(5 * time.Second)
	err := e.ForEachTask(4, func(i int) {
		started.Add(1)
		for started.Load() < 4 {
			if time.Now().After(deadline) {
				t.Errorf("task %d: %d of 4 tasks started after 5 s", i, started.Load())
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// busyWork is a fixed amount of floating-point work, about 40 µs on a
// 2-core KVM host.
func busyWork() float64 {
	x := 1.0
	for i := 0; i < 16000; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

var busySink [8]float64

// BenchmarkForEachTask times a phase of eight tasks of busyWork at one
// and two goroutines, with the median and 90th percentile of its
// phases, beside the ideal: one task's time (the fastest of 100) times
// the tasks each goroutine must run.
//
//	go test -run xxx -bench ForEachTask -count 10 ./internal/mapreduce/
func BenchmarkForEachTask(b *testing.B) {
	task := time.Duration(1 << 62)
	for range 100 {
		start := time.Now()
		busySink[0] = busyWork()
		task = min(task, time.Since(start))
	}
	for _, parallelism := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallelism=%d", parallelism), func(b *testing.B) {
			e := testEngine()
			e.Parallelism = parallelism
			phases := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				_ = e.ForEachTask(len(busySink), func(i int) { busySink[i] = busyWork() })
				phases = append(phases, time.Since(start))
			}
			b.StopTimer()
			slices.Sort(phases)
			b.ReportMetric(float64(phases[len(phases)/2].Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(phases[len(phases)*9/10].Nanoseconds()), "p90-ns")
			b.ReportMetric(float64(task.Nanoseconds()*int64((len(busySink)+parallelism-1)/parallelism)), "ideal-ns")
		})
	}
}
