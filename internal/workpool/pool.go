// Package workpool provides the goroutine pool the module's worker
// goroutines run on. It has three users: the synchronous task loop
// (mapreduce.Engine.ForEachTask's helper seats), the live executor's
// partition steps and the parallel executor's speculated steps.
//
// A Pool[T] owns a fixed set of worker goroutines and one FIFO run
// queue: Submit appends, and a free worker pops the head, so whichever
// worker is free first takes the oldest item. Nothing ties an item to a
// worker; the live executor counts for itself the steps that run on a
// different worker from their partition's previous one.
//
// A worker that finds no item spins for spinWindow, yielding its P and
// watching a counter every Submit and Close bumps, and only then parks.
// An item submitted inside that window starts at once instead of paying
// a parked goroutine's wake-up.
//
// The queue and the park/wake state sit under one mutex. Every item
// this pool runs is a whole partition step or a phase's share of tasks
// (tens of microseconds and up), so the critical sections around a push
// or pop are noise against the work, and one lock keeps park and wake
// free of lost-wakeup races. A pop is amortized O(1) and
// allocation-free even on a queue that never drains (the parallel
// executor's never does), so the steady-state Submit/run cycle performs
// no allocation once the queue has grown to its working capacity.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long a worker stays awake after its last item before
// it parks, and how long ForEachTask's caller spins on helpers still busy
// before it parks. A goroutine started or woken from park waits in its
// waker's runnext slot until the waker blocks or another core steals it:
// 63–92 µs from the 10th to the 90th percentile (2-core KVM host, go1.24),
// as long as a general PageRank iteration's whole reduce phase. The gaps
// between a run's consecutive phases (general and eager PageRank on
// Graph A ÷8 in 8 parts: map, reduce, pricing, next map) are 3–6 µs at
// the median and 5–13 µs at the 90th percentile; at most 3 of 2 740
// exceed 50 µs. So a worker spinning from one phase joins the next as it
// is submitted, and an idle process burns at most 50 µs a worker.
const spinWindow = 50 * time.Microsecond

// Spin yields its P until done reports true or spinWindow has passed.
func Spin(done func() bool) {
	for start := time.Now(); !done() && time.Since(start) < spinWindow; {
		runtime.Gosched()
	}
}

// Pool is a fixed-size worker pool running items of type T through a
// single runner function. The runner must not panic: pool workers run
// it bare, so a panic propagates and kills the process (callers that
// need capture recover inside the item itself).
type Pool[T any] struct {
	run func(worker int, item T)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []T // the run queue: queue[head:] wait, oldest first
	head   int
	idle   int           // workers parked in cond.Wait
	posted atomic.Uint64 // bumped under mu by Submit and Close; spinning workers watch it
	closed bool
	wg     sync.WaitGroup
}

// New starts a pool of workers goroutines (at least 1) that each run
// queued items through run(worker, item). The worker index identifies
// the executing worker so callers can pin per-worker scratch.
func New[T any](workers int, run func(worker int, item T)) *Pool[T] {
	if workers < 1 {
		workers = 1
	}
	p := &Pool[T]{run: run}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// Queued returns the number of items waiting in the run queue, not
// counting items mid-execution. Safe from any goroutine; a
// point-in-time gauge (the live executor's metrics sampler reads it),
// not a synchronization primitive.
func (p *Pool[T]) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) - p.head
}

// Submit appends item to the run queue and wakes a parked worker if
// any. Safe from any goroutine, including pool workers. Items submitted
// after Close may be dropped.
func (p *Pool[T]) Submit(item T) {
	p.mu.Lock()
	p.queue = append(p.queue, item)
	p.posted.Add(1)
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Withdraw removes every queued item for which drop reports true,
// keeping the others in order. Items already taken by a worker run.
func (p *Pool[T]) Withdraw(drop func(T) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q, k := p.queue, p.head
	for _, item := range q[k:] {
		if !drop(item) {
			q[k] = item
			k++
		}
	}
	clear(q[k:])
	p.queue = q[:k]
}

// Close marks the pool closed, lets the workers drain every queued item,
// and waits for them to exit; a spinning worker stops at once. Idempotent.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.posted.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool[T]) worker(w int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if item, ok := p.popLocked(); ok {
			p.mu.Unlock()
			p.run(w, item)
			p.mu.Lock()
			continue
		}
		if p.closed {
			break
		}
		seen := p.posted.Load()
		p.mu.Unlock()
		Spin(func() bool { return p.posted.Load() != seen })
		p.mu.Lock()
		if p.posted.Load() == seen {
			p.idle++
			p.cond.Wait()
			p.idle--
		}
	}
	p.mu.Unlock()
}

// popLocked takes the run queue's head. Caller holds p.mu.
//
// It advances the head index and moves what waits down once the taken
// head is at least as long: amortized O(1), and a queue that never
// drains reuses one backing array instead of creeping on.
func (p *Pool[T]) popLocked() (item T, ok bool) {
	q, h := p.queue, p.head
	if h == len(q) {
		return item, false
	}
	var zero T
	item, q[h] = q[h], zero // release the slot for GC'd element types
	if h++; h < len(q)-h {
		p.head = h
	} else {
		n := copy(q, q[h:])
		clear(q[n:])
		p.queue, p.head = q[:n], 0
	}
	return item, true
}
