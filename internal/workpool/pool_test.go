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
// worker re-enqueues its item onto its own queue from inside the
// runner until the item is done.
func TestPoolSubmitLocalAndResubmit(t *testing.T) {
	const items, rounds = 16, 50
	remaining := make([]int32, items)
	for i := range remaining {
		remaining[i] = rounds
	}
	var done sync.WaitGroup
	done.Add(items)
	var p *Pool[int]
	p = New(4, func(w, item int) {
		if atomic.AddInt32(&remaining[item], -1) > 0 {
			p.SubmitLocal(w, item)
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

// TestPoolSteals loads every item onto one worker's queue while that
// worker is blocked, and checks the other workers steal the backlog.
func TestPoolSteals(t *testing.T) {
	block := make(chan struct{})
	var ran int32
	var p *Pool[int]
	p = New(4, func(_ int, item int) {
		if item < 0 {
			<-block // pin one worker
			return
		}
		atomic.AddInt32(&ran, 1)
	})
	// One blocking item per queue position 0; then a backlog behind it.
	p.SubmitLocal(0, -1)
	for i := 0; i < 64; i++ {
		p.SubmitLocal(0, i)
	}
	// Wait for the backlog to drain via steals.
	for atomic.LoadInt32(&ran) < 64 {
		runtime.Gosched()
	}
	close(block)
	p.Close()
	if s := p.Steals(); s == 0 {
		t.Fatalf("expected steals > 0 with a pinned owner, got %d", s)
	}
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

// TestQueueMatchesModel drives the run queues through Submit, SubmitLocal
// and the workers' grab — the owner's head pop, else a steal of the
// longest other queue's tail — on a pool with no goroutines, against
// plain slices, over scripts long enough that queues cross their
// compaction point many times: every grab must return the model's item
// from the model's queue, and Queued must match.
func TestQueueMatchesModel(t *testing.T) {
	x := uint32(7)
	compactions := 0
	for i := 0; i < 200; i++ {
		script := make([]byte, 2*(20+i))
		for j := range script {
			x = x*1664525 + 1013904223
			script[j] = byte(x >> 24)
		}
		compactions += checkQueueScript(t, script)
	}
	if compactions == 0 {
		t.Fatal("no queue ever moved its waiting items down: the compaction path was not exercised")
	}
}

// checkQueueScript runs script, two bytes an operation — op%4 and a
// worker — and returns how many head pops moved waiting items down.
//
//	0 Submit of the next item (round-robin placement)
//	1 SubmitLocal of the next item on the worker's queue
//	2, 3 the worker grabs its next item
func checkQueueScript(t *testing.T, script []byte) (compactions int) {
	t.Helper()
	const workers = 3
	p := &Pool[int]{queues: make([][]int, workers), heads: make([]int, workers)}
	p.cond = sync.NewCond(&p.mu)
	model, next, item := make([][]int, workers), 0, 0
	for ; len(script) >= 2; script = script[2:] {
		op, w := script[0]%4, int(script[1])%workers
		switch op {
		case 0:
			p.Submit(item)
			model[next] = append(model[next], item)
			next = (next + 1) % workers
			item++
		case 1:
			p.SubmitLocal(w, item)
			model[w] = append(model[w], item)
			item++
		default:
			var want int
			wantOK, wantStolen := true, false
			if len(model[w]) > 0 {
				want, model[w] = model[w][0], model[w][1:]
			} else {
				victim := -1
				for i := range model {
					if i != w && len(model[i]) > 0 && (victim < 0 || len(model[i]) > len(model[victim])) {
						victim = i
					}
				}
				if wantOK, wantStolen = victim >= 0, victim >= 0; wantOK {
					q := model[victim]
					want, model[victim] = q[len(q)-1], q[:len(q)-1]
				}
			}
			p.mu.Lock()
			got, stolen, ok := p.grabLocked(w)
			if !stolen && ok && p.heads[w] == 0 && len(p.queues[w]) > 0 {
				compactions++
			}
			p.mu.Unlock()
			if got != want || stolen != wantStolen || ok != wantOK {
				t.Fatalf("worker %d grabbed (%d, stolen %v, ok %v), model (%d, %v, %v); model queues %v", w, got, stolen, ok, want, wantStolen, wantOK, model)
			}
		}
		queued := 0
		for _, q := range model {
			queued += len(q)
		}
		if got := p.Queued(); got != queued {
			t.Fatalf("Queued %d, model %d: %v", got, queued, model)
		}
	}
	return compactions
}

// TestPoolWithdraw: Withdraw removes the matching queued items and keeps
// the others in their queues' order, past a popped head too.
func TestPoolWithdraw(t *testing.T) {
	p := &Pool[int]{queues: make([][]int, 2), heads: make([]int, 2)}
	p.cond = sync.NewCond(&p.mu)
	for i := range 10 {
		p.Submit(i)
	}
	p.mu.Lock()
	p.grabLocked(0) // pops 0, leaving a head index behind
	p.mu.Unlock()
	p.Withdraw(func(i int) bool { return i%3 == 0 })
	var got []int
	for w, q := range p.queues {
		got = append(got, q[p.heads[w]:]...)
	}
	if want := []int{2, 4, 8, 1, 5, 7}; !slices.Equal(got, want) {
		t.Fatalf("after Withdraw the queues hold %v, want %v", got, want)
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
	for !parked(p) {
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
					for p.Queued() > 0 || !parked(p) {
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

// parked reports whether every worker of p waits for an item.
func parked[T any](p *Pool[T]) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle == len(p.queues)
}
