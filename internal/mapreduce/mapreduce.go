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
	"slices"
	"sync/atomic"
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

// ReduceFunc consumes one key group and emits final records through ctx.
// The values slice is engine-owned scratch, valid only for the duration
// of the call; implementations must copy it to retain it.
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

	// scratch holds the buffers and groupers of the job's previous run
	// for the next one to refill; a run takes it (leaving nil, so an
	// overlapping run of the same job makes its own) and stores it back
	// when done. Jobs are always used by pointer (the atomic makes Job
	// no-copy; go vet enforces this).
	scratch atomic.Pointer[runScratch[K, V]]
}

// runScratch is what a Job recycles from run to run: mapOuts[i] is map
// task i's output, spills[i] the same records partitioned for the reduce
// tasks, parts[p] reduce partition p's fetched input, redOuts[p] reduce
// task p's output, and combiners[i] / reducers[p] the grouper of map task
// i's combine step and of reduce task p. A task keeps its grouper from
// run to run because an iterative job tends to hand it the key sequence
// it handed it last time, which the grouper replays (grouper.group).
// output is a Result.Output handed back by its holder (Recycle), else
// nil. For a V that holds pointers the buffers keep the previous run's
// records reachable until overwritten.
type runScratch[K comparable, V any] struct {
	mapOuts   [][]KV[K, V]
	spills    []spill[K, V]
	parts     [][]KV[K, V]
	redOuts   [][]KV[K, V]
	combiners []grouper[K, V]
	reducers  []grouper[K, V]
	output    []KV[K, V]
}

// spill is one map task's output partitioned for the reduce tasks, as a
// Hadoop map task spills it: slab holds the records grouped by reduce
// task, region p ending at ends[p], each region in emission order. route
// is the reduce task of each emitted record, kept between the pass that
// counts the regions and the one that fills them.
type spill[K comparable, V any] struct {
	slab  []KV[K, V]
	ends  []int32
	route []int32
}

// fill partitions out, a map task's output, into nReduces regions by
// part (nil: the Job default) with a stable counting sort. A key that
// part routes outside [0, nReduces) leaves the spill unfilled and is
// reported as a partitionError.
func (s *spill[K, V]) fill(out []KV[K, V], nReduces int, part PartitionFunc[K]) error {
	if part == nil {
		part = genericPartition[K]
	}
	n := len(out)
	s.route = slices.Grow(s.route[:0], n)[:n]
	s.ends = slices.Grow(s.ends[:0], nReduces)[:nReduces]
	clear(s.ends)
	for j, kv := range out {
		p := part(kv.Key, nReduces)
		if p < 0 || p >= nReduces {
			return partitionError{p, nReduces}
		}
		s.route[j] = int32(p)
		s.ends[p]++
	}
	// ends[p] becomes region p's start, then a cursor that stops at its
	// end.
	var sum int32
	for p, c := range s.ends {
		s.ends[p] = sum
		sum += c
	}
	s.slab = slices.Grow(s.slab[:0], n)[:n]
	for j, p := range s.route {
		s.slab[s.ends[p]] = out[j]
		s.ends[p]++
	}
	return nil
}

// region returns the records the spill holds for reduce task p.
func (s *spill[K, V]) region(p int) []KV[K, V] {
	lo := int32(0)
	if p > 0 {
		lo = s.ends[p-1]
	}
	return s.slab[lo:s.ends[p]]
}

// partitionError is a map task's report that its job's partitioner
// routed a key to partition p of n.
type partitionError struct{ p, n int }

func (e partitionError) Error() string {
	return fmt.Sprintf("partitioner returned %d for %d partitions", e.p, e.n)
}

// takeOutput concatenates the tasks' outputs into the array handed back
// to the job (Recycle), or a fresh one, and takes it out of the scratch:
// what a run returns is held by its caller alone.
func (sc *runScratch[K, V]) takeOutput(outs [][]KV[K, V]) []KV[K, V] {
	n := 0
	for _, out := range outs {
		n += len(out)
	}
	output := slices.Grow(sc.output[:0], n)
	sc.output = nil
	for _, out := range outs {
		output = append(output, out...)
	}
	return output
}

// Recycle hands a Result.Output the caller is done with back to the job,
// whose next run fills it instead of allocating. It is there for
// core.Driver, which would otherwise drop one output-sized slice per
// global iteration. A job that is running, or has not run, ignores it.
func (j *Job[P, K, V]) Recycle(output []KV[K, V]) {
	if sc := j.scratch.Swap(nil); sc != nil {
		sc.output = output
		j.scratch.Store(sc)
	}
}

// takeScratch claims the job's run scratch, sized for nMaps map tasks
// and nReduces partitions. Every buffer is truncated by the task that
// fills it.
func (j *Job[P, K, V]) takeScratch(nMaps, nReduces int) *runScratch[K, V] {
	sc := j.scratch.Swap(nil)
	if sc == nil {
		sc = &runScratch[K, V]{}
	}
	sc.mapOuts = resize(sc.mapOuts, nMaps)
	sc.spills = resize(sc.spills, nMaps)
	sc.parts = resize(sc.parts, nReduces)
	sc.redOuts = resize(sc.redOuts, nReduces)
	sc.combiners = resize(sc.combiners, nMaps)
	sc.reducers = resize(sc.reducers, nReduces)
	return sc
}

// resize returns bufs with length n, keeping every element it already
// holds (including those beyond its current length) for reuse.
func resize[T any](bufs []T, n int) []T {
	bufs = bufs[:cap(bufs)]
	if n > len(bufs) {
		bufs = append(bufs, make([]T, n-len(bufs))...)
	}
	return bufs[:n]
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

// defaultRecordSize is what a record costs a job with no RecordSize.
const defaultRecordSize = 16

// recordBytes is the size of records by size, or at the default when
// size is nil.
func recordBytes[K comparable, V any](size SizeFunc[K, V], records []KV[K, V]) int64 {
	if size == nil {
		return defaultRecordSize * int64(len(records))
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
