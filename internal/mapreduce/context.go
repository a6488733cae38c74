package mapreduce

// TaskContext is the interface a map or reduce function uses to emit
// records and to charge simulated compute. One context belongs to exactly
// one task attempt and is not safe for concurrent use by multiple
// goroutines (Hadoop tasks are single-threaded too).
type TaskContext[K comparable, V any] struct {
	out []KV[K, V]

	// ops is app-charged compute (edge relaxations, distance
	// calculations), priced at the cluster's ComputeRate.
	ops int64
	// localSyncs counts partial synchronizations performed inside this
	// task by the partial-synchronization runtime.
	localSyncs int64
}

// Emit appends one record to the task output: intermediate records for a
// map task, final records for a reduce task.
func (c *TaskContext[K, V]) Emit(key K, value V) {
	c.out = append(c.out, KV[K, V]{Key: key, Value: value})
}

// Charge records ops primitive operations of user compute against the
// simulated cluster's compute rate.
func (c *TaskContext[K, V]) Charge(ops int64) {
	c.ops += ops
}

// LocalSync records one local (in-memory, intra-task) synchronization
// barrier. The partial-synchronization runtime calls this once per local
// reduce, from a map task; it costs LocalSyncOverhead rather than a
// global job barrier, and Result.LocalSyncs sums it over the map tasks.
func (c *TaskContext[K, V]) LocalSync() {
	c.localSyncs++
}

// TaskStats is what one finished task recorded: the counts the cost
// model prices (Engine.Price). A map task's input is its split; a reduce
// task's is the records it fetched, whose bytes are not priced.
type TaskStats struct {
	InRecords  int64
	InBytes    int64
	OutRecords int64
	OutBytes   int64
	// Ops is the compute charged (TaskContext.Charge), LocalSyncs the
	// partial synchronizations (TaskContext.LocalSync).
	Ops        int64
	LocalSyncs int64
}
