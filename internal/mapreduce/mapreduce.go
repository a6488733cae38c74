// Package mapreduce implements a MapReduce engine in the style of Hadoop
// 0.20 (the paper's platform): jobs composed of map and reduce tasks over
// input splits, a hash-partitioned shuffle between the phases (each map
// task partitions its own output into one region per reduce task, and
// each reduce task fetches its region from every map task), optional
// combiners, data-local map input reads, and fault tolerance by
// deterministic replay of failed task attempts.
//
// The engine executes user map/reduce functions for real — over real data,
// concurrently on the host's cores — while charging virtual time to a
// simulated cluster (internal/cluster) so that job durations reflect the
// paper's 8-node EC2 testbed rather than this process. Everything that the
// paper's evaluation measures structurally (iteration counts, record and
// byte volumes, numbers of synchronizations) is a true output of the
// computation; only seconds are simulated.
package mapreduce

import (
	"fmt"
	"hash/fnv"
)

// KV is one key-value record flowing between phases.
type KV[K comparable, V any] struct {
	Key   K
	Value V
}

// Split is one unit of map input: an opaque payload plus the sizes the
// cost model prices. Map task i reads splits[i]; a map function that
// needs to know which split it has carries that in Data. In the paper's
// formulations a split is a graph partition (general baseline and eager
// variants both map over complete partitions, §V-B1).
type Split[P any] struct {
	// Data is the split payload handed to the map function.
	Data P
	// Records is the number of logical input records, charged at the
	// per-record framework cost.
	Records int64
	// Bytes is the serialized size, charged as a DFS read from the map
	// task's own node (every split is scheduled where its replica is).
	Bytes int64
}

// MapFunc consumes one split and emits intermediate records through ctx.
type MapFunc[P any, K comparable, V any] func(ctx *TaskContext[K, V], split Split[P])

// ReduceFunc consumes one key group, its values in shuffle order, and
// emits final records through ctx.
type ReduceFunc[K comparable, V any] func(ctx *TaskContext[K, V], key K, values []V)

// CombineFunc locally folds a key group emitted by a single map task
// before the shuffle, exactly like a Hadoop combiner. It returns the
// replacement value list (typically length 1).
type CombineFunc[K comparable, V any] func(key K, values []V) []V

// PartitionFunc assigns a key to one of n reduce partitions. It must be
// deterministic and return a value in [0, n).
type PartitionFunc[K comparable] func(key K, n int) int

// SizeFunc reports the simulated serialized size of one record, in bytes,
// for shuffle and DFS cost accounting.
type SizeFunc[K comparable, V any] func(key K, value V) int64

// Job describes one MapReduce job.
type Job[P any, K comparable, V any] struct {
	// Name labels the job in results and errors.
	Name string
	// Map and Reduce are the user phase functions. Map is required.
	// A nil Reduce makes the job map-only: intermediate records become
	// the output unchanged.
	Map    MapFunc[P, K, V]
	Reduce ReduceFunc[K, V]
	// Combine, if non-nil, folds each map task's output per key before
	// the shuffle (paper §V-A notes combiners compose with the partial
	// synchronization API).
	Combine CombineFunc[K, V]
	// NumReduces is the reduce task count; 0 means the cluster's reduce
	// slot count, Hadoop's usual default.
	NumReduces int
	// Partition routes keys to reduce tasks; nil selects a generic
	// FNV-based partitioner (correct but slower than a type-aware one).
	Partition PartitionFunc[K]
	// RecordSize prices one record; nil charges a flat 16 bytes
	// (8-byte key + 8-byte value), which matches the integer-keyed
	// records of all three paper applications.
	RecordSize SizeFunc[K, V]
}

// validate reports configuration errors and returns the run's reduce
// task count on a cluster with reduceSlots reduce slots. Each run
// resolves the defaults of NumReduces, Partition and RecordSize for
// itself: the Job is left as its caller wrote it.
func (j *Job[P, K, V]) validate(reduceSlots int) (nReduces int, err error) {
	if j.Map == nil {
		return 0, fmt.Errorf("mapreduce: job %q has nil Map", j.Name)
	}
	if j.NumReduces < 0 {
		return 0, fmt.Errorf("mapreduce: job %q has negative NumReduces", j.Name)
	}
	if j.NumReduces == 0 {
		return reduceSlots, nil
	}
	return j.NumReduces, nil
}

// DefaultRecordSize is what a record costs a job with no RecordSize.
const DefaultRecordSize = 16

// recordBytes is the size of records by size, or at the default when
// size is nil.
func recordBytes[K comparable, V any](size SizeFunc[K, V], records []KV[K, V]) int64 {
	if size == nil {
		return DefaultRecordSize * int64(len(records))
	}
	var bytes int64
	for _, kv := range records {
		bytes += size(kv.Key, kv.Value)
	}
	return bytes
}

// genericPartition hashes the fmt representation of the key. Type-aware
// partitioners (Int64Partition) should be preferred on hot paths.
func genericPartition[K comparable](key K, n int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", key)
	return int(h.Sum32() % uint32(n))
}

// Int64Partition partitions int64-like keys by value, matching Hadoop's
// HashPartitioner on IntWritable. Exposed for the common case of node-id
// keys in all three paper applications.
// -math.MinInt64 overflows back to math.MinInt64, whose uint64 value is
// its magnitude, 1<<63.
func Int64Partition(key int64, n int) int {
	if key < 0 {
		key = -key
	}
	return int(uint64(key) % uint64(n))
}
