package mapreduce

import (
	"sync"
	"sync/atomic"

	"repro/internal/workpool"
)

// job is one ForEachTask call: n tasks claimed from next, by the caller
// and by the helpers that take one of its seats from the helper pool.
type job struct {
	fn     func(i int)
	n      int64
	next   atomic.Int64
	active atomic.Int32 // helpers working on the job

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

// join takes a helper's seat on the job if a task is still unclaimed,
// so a helper that arrives after the last claim leaves without touching
// fn. A helper counts as active before it claims, and the caller waits
// only once it has claimed past the end, so the caller never returns
// while a task it did not run is in flight.
func (j *job) join() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.next.Load() >= j.n {
		return false
	}
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
	workpool.Spin(func() bool { return j.active.Load() == 0 })
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.active.Load() > 0 {
		j.done.Wait()
	}
	return j.first
}

// helpers is the process's helper pool, whose workers outlive the calls
// they help. It grows to the most helpers one call has asked for by
// starting a larger pool; the old pool's workers park for good.
var helpers struct {
	mu   sync.Mutex
	pool *workpool.Pool[*job]
	size int
}

// helperPool returns a helper pool of at least seats workers.
func helperPool(seats int) *workpool.Pool[*job] {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	if helpers.size < seats {
		helpers.pool, helpers.size = workpool.New(seats, help), seats
	}
	return helpers.pool
}

// help is a helper's turn at a seat: join the job if a task is left and
// work it.
func help(_ int, j *job) {
	if j.join() {
		j.work()
		j.leave()
	}
}
