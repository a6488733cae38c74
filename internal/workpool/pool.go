// Package workpool provides the work-stealing goroutine pool the
// module's worker goroutines run on. It has three users: the synchronous
// task loop (mapreduce.Engine.ForEachTask's helpers), the live
// executor's partition step tasks and the parallel executor's speculated
// steps.
//
// A Pool[T] owns a fixed set of worker goroutines and one run queue per
// worker. Owners pop their own queue FIFO (head first), so partitions
// multiplexed onto one worker take fair turns; an idle worker steals
// from the tail of the longest other queue, migrating the freshest item
// to itself. SubmitLocal keeps an item on its current worker's queue —
// the live executor uses it to re-run a partition straight after its own
// step, on the worker whose scratch (flat buffers, CSR cursors) is
// already warm — while Submit round-robins across queues: every
// ForEachTask helper seat, the live executor's initial placement and
// every wake (a timer's, a publication's, a gate release's) and every
// speculation the parallel executor dispatches go through it.
//
// A worker that finds no item spins for spinWindow, yielding its P and
// watching a counter every Submit, SubmitLocal and Close bumps, and only
// then parks. An item submitted inside that window starts at once
// instead of paying a parked goroutine's wake-up.
//
// All queue operations are arbitrated by a single pool mutex rather
// than per-queue locks with lock-free deques. That is a deliberate
// tradeoff: every item this pool runs is a whole partition step or a
// phase's share of tasks (tens of microseconds and up), so the critical
// sections around a push/pop are noise against the work itself, and a
// single lock makes the park/wake and steal paths trivially free of
// lost-wakeup races. A pop is amortized O(1) and allocation-free even on
// a queue that never drains (the parallel executor's never do), so the
// steady-state Submit/run cycle performs no allocation once the queues
// have grown to their working capacity.
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

	mu      sync.Mutex
	cond    *sync.Cond
	queues  [][]T // per-worker FIFO run queues: queues[w][heads[w]:] wait
	heads   []int
	next    int           // round-robin cursor for Submit placement
	idle    int           // workers parked in cond.Wait
	posted  atomic.Uint64 // bumped under mu by Submit, SubmitLocal and Close; spinning workers watch it
	steals  int64
	onSteal func(worker int, item T)
	closed  bool
	wg      sync.WaitGroup
}

// New starts a pool of workers goroutines (at least 1) that each run
// queued items through run(worker, item). The worker index identifies
// the executing worker so callers can pin per-worker scratch.
func New[T any](workers int, run func(worker int, item T)) *Pool[T] {
	if workers < 1 {
		workers = 1
	}
	p := &Pool[T]{
		run:    run,
		queues: make([][]T, workers),
		heads:  make([]int, workers),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// Steals returns the number of items executed so far by a worker other
// than the one whose queue they were submitted to. Safe from any
// goroutine; like Queued a point-in-time gauge (the live executor's
// metrics sampler reads it mid-run), exact once Close has returned.
func (p *Pool[T]) Steals() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.steals
}

// Queued returns the total number of items currently waiting in the
// run queues, not counting items mid-execution. Safe from any
// goroutine; a point-in-time gauge (the live executor's metrics
// sampler reads it), not a synchronization primitive.
func (p *Pool[T]) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i, q := range p.queues {
		n += len(q) - p.heads[i]
	}
	return n
}

// SetStealHook installs an observer invoked (on the stealing worker's
// goroutine, after the pool mutex is released, before the item runs)
// whenever a worker executes an item stolen from another queue. The
// live executor's trace layer uses it to attribute migrations. Install
// before items are submitted; a nil hook (the default) costs nothing.
func (p *Pool[T]) SetStealHook(hook func(worker int, item T)) {
	p.mu.Lock()
	p.onSteal = hook
	p.mu.Unlock()
}

// Submit enqueues item on the next queue in round-robin order and wakes
// a parked worker if any. Safe from any goroutine, including pool
// workers. Items submitted after Close may be dropped.
func (p *Pool[T]) Submit(item T) {
	p.mu.Lock()
	p.queues[p.next] = append(p.queues[p.next], item)
	p.next++
	if p.next == len(p.queues) {
		p.next = 0
	}
	p.posted.Add(1)
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// SubmitLocal enqueues item on worker w's own queue, keeping it on the
// worker whose cache and scratch already hold its state. A different
// worker may still steal it if w is busy and others go idle.
func (p *Pool[T]) SubmitLocal(w int, item T) {
	p.mu.Lock()
	p.queues[w] = append(p.queues[w], item)
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
	for w, q := range p.queues {
		k := p.heads[w]
		for _, item := range q[k:] {
			if !drop(item) {
				q[k] = item
				k++
			}
		}
		clear(q[k:])
		p.queues[w] = q[:k]
	}
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
		if item, stolen, ok := p.grabLocked(w); ok {
			hook := p.onSteal
			p.mu.Unlock()
			if stolen && hook != nil {
				hook(w, item)
			}
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

// grabLocked takes the next item for worker w: the head of its own
// queue, else the tail of the longest other queue (stolen=true). Caller
// holds p.mu.
//
// The owner pops by advancing its head index and moves what waits down
// once the taken head is at least as long: amortized O(1), and a queue
// that never drains reuses one backing array instead of creeping on.
func (p *Pool[T]) grabLocked(w int) (item T, stolen, ok bool) {
	var zero T
	if q, h := p.queues[w], p.heads[w]; h < len(q) {
		item, q[h] = q[h], zero // release the slot for GC'd element types
		if h++; h < len(q)-h {
			p.heads[w] = h
		} else {
			n := copy(q, q[h:])
			clear(q[n:])
			p.queues[w], p.heads[w] = q[:n], 0
		}
		return item, false, true
	}
	victim, best := -1, 0
	for i, q := range p.queues {
		if n := len(q) - p.heads[i]; i != w && n > best {
			victim, best = i, n
		}
	}
	if victim < 0 {
		return item, false, false
	}
	q := p.queues[victim]
	item, q[len(q)-1] = q[len(q)-1], zero
	p.queues[victim] = q[:len(q)-1]
	p.steals++
	return item, true, true
}
