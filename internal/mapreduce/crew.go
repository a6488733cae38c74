package mapreduce

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long a helper stays awake after its last job before
// it parks, and how long a caller spins on helpers still busy before it
// parks. A goroutine started or woken from park waits in its waker's
// runnext slot until the waker blocks or another core steals it: 63–92
// µs from the 10th to the 90th percentile (2-core KVM host, go1.24), as
// long as a general PageRank iteration's whole reduce phase. The gaps
// between a run's consecutive phases (general and eager PageRank on
// Graph A ÷8 in 8 parts: map, reduce, pricing, next map) are 3–6 µs at
// the median and 5–13 µs at the 90th percentile; at most 3 of 2 740
// exceed 50 µs. So a helper spinning from one phase joins the next as it
// is published, and an idle process burns at most 50 µs a helper.
const spinWindow = 50 * time.Microsecond

// job is one ForEachTask call: n tasks claimed from next, by the caller
// and by up to seats helpers.
type job struct {
	fn     func(i int) error
	n      int64
	next   atomic.Int64
	active atomic.Int32 // helpers working on the job
	seats  int32        // helpers that may still join; guarded by mu

	mu    sync.Mutex
	done  sync.Cond // L is &mu; signalled when the last helper leaves
	first error
}

// work runs tasks until none is left to claim.
func (j *job) work() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		if err := runTask(int(i), j.fn); err != nil {
			j.mu.Lock()
			if j.first == nil {
				j.first = err
			}
			j.mu.Unlock()
		}
	}
}

// join takes a helper's seat on the job if one is free and a task is
// still unclaimed, so a helper that arrives after the last claim leaves
// without touching fn. A helper counts as active before it claims, and
// the caller waits only once it has claimed past the end, so the
// caller never returns while a task it did not run is in flight.
func (j *job) join() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seats == 0 || j.next.Load() >= j.n {
		return false
	}
	j.seats--
	j.active.Add(1)
	return true
}

// leave gives up a helper's seat once its tasks are done.
func (j *job) leave() {
	if j.active.Add(-1) == 0 {
		j.mu.Lock()
		j.done.Signal()
		j.mu.Unlock()
	}
}

// wait returns the job's first error once no helper works on it. Like
// a helper, the caller spins before it parks: a parked caller leaves
// its core idle, and waking it again costs the next phase a helper.
func (j *job) wait() error {
	spin(func() bool { return j.active.Load() == 0 })
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.active.Load() > 0 {
		j.done.Wait()
	}
	return j.first
}

// spin yields its P until done reports true or spinWindow has passed.
func spin(done func() bool) {
	for start := time.Now(); !done() && time.Since(start) < spinWindow; {
		runtime.Gosched()
	}
}

// crew is the process's helpers: it grows to the most helpers one job
// has asked for, and its helpers outlive the jobs they join, so a run's
// next phase finds them awake instead of paying a goroutine start.
var crew helpers

func init() { crew.wake.L = &crew.mu }

type helpers struct {
	mu     sync.Mutex
	wake   sync.Cond // L is &mu; parked helpers wait on it
	jobs   []*job    // published and not yet retired
	size   int       // helpers started
	parked int       // helpers waiting on wake

	posted   atomic.Uint64 // jobs published so far; spinning helpers watch it
	spinning atomic.Int32  // helpers inside their spin window
}

// publish offers j to the crew, growing it to j's seats and waking as
// many parked helpers as j can seat.
func (c *helpers) publish(j *job) {
	seats := int(j.seats) // no helper has seen j yet
	c.mu.Lock()
	c.jobs = append(c.jobs, j)
	c.posted.Add(1)
	for ; c.size < seats; c.size++ {
		go c.help()
	}
	for w := min(c.parked, seats); w > 0; w-- {
		c.wake.Signal()
	}
	c.mu.Unlock()
}

// retire withdraws j once its caller has claimed its last task.
func (c *helpers) retire(j *job) {
	c.mu.Lock()
	i := slices.Index(c.jobs, j)
	c.jobs = slices.Delete(c.jobs, i, i+1)
	c.mu.Unlock()
}

// help is a helper's life: join a published job and work it, else spin
// for spinWindow, yielding its P, watching for the next job, then park
// until one is published.
func (c *helpers) help() {
	c.mu.Lock()
	for {
		if i := slices.IndexFunc(c.jobs, (*job).join); i >= 0 {
			j := c.jobs[i]
			c.mu.Unlock()
			j.work()
			j.leave()
			c.mu.Lock()
			continue
		}
		seen := c.posted.Load()
		c.mu.Unlock()
		c.spinning.Add(1)
		spin(func() bool { return c.posted.Load() != seen })
		c.spinning.Add(-1)
		c.mu.Lock()
		if c.posted.Load() == seen {
			c.parked++
			c.wake.Wait()
			c.parked--
		}
	}
}
