package workpool

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEveryItem submits items from many goroutines and checks
// each runs exactly once before Close returns.
func TestPoolRunsEveryItem(t *testing.T) {
	const n = 10000
	var ran [n]int32
	p := New(4, func(_ int, item int) {
		atomic.AddInt32(&ran[item], 1)
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				p.Submit(i)
			}
		}(g)
	}
	wg.Wait()
	p.Close()
	for i := range ran {
		if ran[i] != 1 {
			t.Fatalf("item %d ran %d times, want 1", i, ran[i])
		}
	}
}

// TestPoolSubmitLocalAndResubmit drives the live executor's pattern: a
// worker re-submits its item from inside the runner until the item is
// done.
func TestPoolSubmitLocalAndResubmit(t *testing.T) {
	const items, rounds = 16, 50
	remaining := make([]int32, items)
	for i := range remaining {
		remaining[i] = rounds
	}
	var done sync.WaitGroup
	done.Add(items)
	var p *Pool[int]
	p = New(4, func(_, item int) {
		if atomic.AddInt32(&remaining[item], -1) > 0 {
			p.Submit(item)
			return
		}
		done.Done()
	})
	for i := 0; i < items; i++ {
		p.Submit(i)
	}
	done.Wait()
	p.Close()
	for i, r := range remaining {
		if r != 0 {
			t.Fatalf("item %d has %d rounds left", i, r)
		}
	}
}

// TestPoolSteals blocks one worker on an item and checks the other
// workers run the 64 items queued behind it.
func TestPoolSteals(t *testing.T) {
	block := make(chan struct{})
	var ran int32
	p := New(4, func(_ int, item int) {
		if item < 0 {
			<-block // pin one worker
			return
		}
		atomic.AddInt32(&ran, 1)
	})
	p.Submit(-1)
	for i := 0; i < 64; i++ {
		p.Submit(i)
	}
	for atomic.LoadInt32(&ran) < 64 {
		runtime.Gosched()
	}
	close(block)
	p.Close()
}

// TestPoolCloseIdempotent closes twice (once concurrently).
func TestPoolCloseIdempotent(t *testing.T) {
	p := New(2, func(_, _ int) {})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
	}
	wg.Wait()
	p.Close()
}

// TestPoolSteadyStateAllocFree checks the Submit/run cycle allocates
// nothing once the queues have reached working capacity — the property
// the live executor's and the parallel executor's 0-alloc step paths
// depend on — both when the worker's queue drains every cycle (the live
// executor's usual case) and when it never does (the parallel
// executor's: speculations queue up behind the running one).
func TestPoolSteadyStateAllocFree(t *testing.T) {
	t.Run("drains", func(t *testing.T) {
		var done sync.WaitGroup
		p := New(1, func(_, _ int) { done.Done() })
		defer p.Close()
		// Warm the queue's backing array.
		for i := 0; i < 100; i++ {
			done.Add(1)
			p.Submit(i)
		}
		done.Wait()
		steadyAllocFree(t, func() {
			done.Add(1)
			p.Submit(7)
			done.Wait()
		})
	})
	t.Run("never drains", func(t *testing.T) {
		// Each item blocks its worker until released, and two are
		// outstanding between cycles: at most one of them is running, so
		// the other is always queued.
		release, finished := make(chan struct{}), make(chan struct{})
		p := New(1, func(_, _ int) {
			<-release
			finished <- struct{}{}
		})
		defer p.Close()
		p.Submit(0)
		p.Submit(1)
		defer func() { // let the two outstanding items finish, on failure too
			for range 2 {
				release <- struct{}{}
				<-finished
			}
		}()
		cycle := func() {
			p.Submit(7)
			release <- struct{}{}
			<-finished
		}
		for i := 0; i < 100; i++ {
			cycle()
		}
		steadyAllocFree(t, cycle)
	})
}

// steadyAllocFree runs cycle a thousand times and fails if they allocate
// more than 0.01 times a cycle: once in a hundred cycles is a queue that
// reallocates as it goes, not a stray runtime allocation.
// (testing.AllocsPerRun would round 0.5 allocations a cycle down to 0.)
func steadyAllocFree(t *testing.T, cycle func()) {
	t.Helper()
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / runs; per > 0.01 {
		t.Fatalf("steady-state Submit/run allocates %.3f times a cycle, want 0", per)
	}
}

// TestQueueMatchesModel drives the run queue through Submit and the
// workers' pop on a pool with no goroutines, against a plain slice,
// over scripts long enough that the queue crosses its compaction point
// many times: every pop must return the model's head, and Queued must
// match.
func TestQueueMatchesModel(t *testing.T) {
	x := uint32(7)
	compactions := 0
	for i := 0; i < 200; i++ {
		script := make([]byte, 20+i)
		for j := range script {
			x = x*1664525 + 1013904223
			script[j] = byte(x >> 24)
		}
		compactions += checkQueueScript(t, script)
	}
	if compactions == 0 {
		t.Fatal("the queue never moved its waiting items down: the compaction path was not exercised")
	}
}

// checkQueueScript runs script, a byte an operation — an even byte
// Submits the next item, an odd one pops — and returns how many pops
// moved waiting items down.
func checkQueueScript(t *testing.T, script []byte) (compactions int) {
	t.Helper()
	p := &Pool[int]{}
	p.cond = sync.NewCond(&p.mu)
	var model []int
	for i, op := range script {
		if op%2 == 0 {
			p.Submit(i)
			model = append(model, i)
		} else {
			var want int
			wantOK := len(model) > 0
			if wantOK {
				want, model = model[0], model[1:]
			}
			p.mu.Lock()
			got, ok := p.popLocked()
			if ok && p.head == 0 && len(p.queue) > 0 {
				compactions++
			}
			p.mu.Unlock()
			if got != want || ok != wantOK {
				t.Fatalf("popped (%d, ok %v), model (%d, %v); model queue %v", got, ok, want, wantOK, model)
			}
		}
		if got := p.Queued(); got != len(model) {
			t.Fatalf("Queued %d, model %d: %v", got, len(model), model)
		}
	}
	return compactions
}

// TestPoolWithdraw: Withdraw removes the matching queued items and keeps
// the others in order, past a popped head too.
func TestPoolWithdraw(t *testing.T) {
	p := &Pool[int]{}
	p.cond = sync.NewCond(&p.mu)
	for i := range 10 {
		p.Submit(i)
	}
	p.mu.Lock()
	p.popLocked() // pops 0, leaving a head index behind
	p.mu.Unlock()
	p.Withdraw(func(i int) bool { return i%3 == 0 })
	if got, want := p.queue[p.head:], []int{1, 2, 4, 5, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("after Withdraw the queue holds %v, want %v", got, want)
	}
}

// TestPoolWorkersParkAfterSpinWindow: every worker is parked within
// spinWindow + 10 ms of its last item, so an idle pool burns no core.
func TestPoolWorkersParkAfterSpinWindow(t *testing.T) {
	var done sync.WaitGroup
	p := New(4, func(_, _ int) { done.Done() })
	defer p.Close()
	done.Add(8)
	for i := range 8 {
		p.Submit(i)
	}
	done.Wait()
	deadline := time.Now().Add(spinWindow + 10*time.Millisecond)
	for !parked(p, 4) {
		if time.Now().After(deadline) {
			t.Fatal("a worker is still awake 10 ms after the spin window")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPoolCloseWhileSpinning: Close, called while the workers spin
// after their last item, returns and leaves none of the pool's
// goroutines running.
func TestPoolCloseWhileSpinning(t *testing.T) {
	before := runtime.NumGoroutine()
	var done sync.WaitGroup
	p := New(4, func(_, _ int) { done.Done() })
	done.Add(4)
	for i := range 4 {
		p.Submit(i)
	}
	done.Wait()
	p.Close()
	// A worker has signalled its exit once Close returns; give the
	// runtime a moment to retire the goroutine.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() != before {
		if time.Now().After(deadline) {
			t.Fatalf("Close left %d goroutines running, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkSubmitToStart times a worker's start: from Submit to the item
// starting, while the submitter stays on its core as the live executor's
// stepping worker does. "parked" submits once every worker has parked;
// "spinning" submits 10 µs after the previous item ended, inside the
// worker's spin window. It reports the 10th, 50th and 90th percentiles
// of the delays.
//
//	go test -run xxx -bench SubmitToStart -count 5 ./internal/workpool/
func BenchmarkSubmitToStart(b *testing.B) {
	for _, spinning := range []bool{false, true} {
		name := map[bool]string{false: "parked", true: "spinning"}[spinning]
		b.Run(name, func(b *testing.B) {
			var (
				started atomic.Bool
				ended   time.Time
				delay   time.Duration
			)
			p := New(runtime.GOMAXPROCS(0), func(_ int, at time.Time) {
				delay = time.Since(at)
				ended = time.Now()
				started.Store(true)
			})
			defer p.Close()
			delays := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				if spinning && i > 0 {
					for time.Since(ended) < 10*time.Microsecond {
					}
				} else {
					for p.Queued() > 0 || !parked(p, runtime.GOMAXPROCS(0)) {
						runtime.Gosched()
					}
				}
				started.Store(false)
				p.Submit(time.Now())
				for !started.Load() {
				}
				delays = append(delays, delay)
			}
			b.StopTimer()
			slices.Sort(delays)
			for _, q := range []int{10, 50, 90} {
				b.ReportMetric(float64(delays[len(delays)*q/100].Nanoseconds()), fmt.Sprintf("p%d-ns", q))
			}
		})
	}
}

// parked reports whether all workers of p wait for an item.
func parked[T any](p *Pool[T], workers int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle == workers
}
