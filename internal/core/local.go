package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/workpool"
)

// lmapPool is the process-wide thread pool backing every threaded lmap
// phase, shared with nothing else: work-stealing keeps uneven chunks
// from idling workers, and one fixed pool bounds the process at
// GOMAXPROCS lmap threads no matter how many gmap tasks run
// concurrently, instead of spawning Threads goroutines per task per
// local iteration. Built lazily on the first threaded phase.
var lmapPool = sync.OnceValue(func() *workpool.Pool[func()] {
	return workpool.New(runtime.GOMAXPROCS(0), func(_ int, fn func()) { fn() })
})

// LocalContext is the emission interface available to lmap and lreduce
// inside one gmap task. It owns the paper's per-task hashtable: lmap
// output accumulates in an intermediate buffer via EmitLocalIntermediate;
// lreduce folds each locally-grouped key and stores results via
// EmitLocal; at the end of local iterations the hashtable contents become
// the gmap task's global emission.
//
// Everything is addressed by slot. Each distinct key is resolved once to
// a small integer that stays its slot for the context's life (see slot);
// the intermediate buffer is an append-only (slot, value) log that the
// partial-synchronization barrier counting-sorts into one slab, and the
// hashtable is a value and a generation stamp per slot. Slot numbers
// never reach user code: groups, State and the default Output all run in
// first-emitted order, which the log and stateOrder record.
//
// A LocalContext is confined to one gmap task at a time. BuildGMap pools
// contexts and re-arms one per task, so a context outlives the task and
// its slot tables grow to the union of the key sets it has served. During
// a threaded lmap phase each worker logs into its own shard, appended in
// shard order at the barrier, so user code never needs locks.
//
// The log, the slab and the hashtable's value table are reused without
// clearing: for a V that holds pointers (K-Means' Accum.Sum) they keep
// the last value written to each position reachable until it is
// overwritten or the pool drops the context.
type LocalContext[K comparable, V any] struct {
	// task is the gmap task currently served; the default Output emits
	// the hashtable through it.
	task *mapreduce.TaskContext[K, V]

	// keyIndex, if non-nil, maps a key straight to its slot
	// (LocalSpec.KeyIndex); otherwise slotOf interns keys in first-seen
	// order. keys[s] is slot s's key.
	keyIndex func(K) int
	slotOf   map[K]int32
	keys     []K

	// Intermediate buffer (EmitLocalIntermediate): logSlot/logVal are the
	// emission log in record order. A shard cannot resolve slots (the
	// resolver belongs to its parent), so it logs keys in logKey instead.
	logSlot []int32
	logKey  []K
	logVal  []V

	// Grouping built at the barrier: order lists this iteration's slots
	// in first-emitted order, slab holds their values group by group, and
	// end[s] is the end of slot s's group in slab (a group starts where
	// the previous one in order ends). end[s] is zero outside order.
	order []int32
	end   []int32
	slab  []V

	// The hashtable (EmitLocal): slot s holds stateVal[s] iff
	// stateGen[s] == gen, so emptying the table is gen++. stateOrder
	// lists the live slots in first-emitted order.
	stateVal   []V
	stateGen   []uint32
	stateOrder []int32
	gen        uint32

	// shards are the per-worker contexts of a threaded lmap phase, with
	// the phase's panic slots and wait group beside them, all reused
	// across local iterations.
	shards []*LocalContext[K, V]
	panics []any
	wg     sync.WaitGroup

	// parent is set on a shard: Value reads the parent's hashtable
	// (shared read-only across workers), and EmitLocal is a bug and
	// panics.
	parent *LocalContext[K, V]

	// localIter is the completed local iteration count.
	localIter int
	ops       int64
}

// newLocalContext returns an empty context serving tc, resolving keys by
// interning.
func newLocalContext[K comparable, V any](tc *mapreduce.TaskContext[K, V]) *LocalContext[K, V] {
	return &LocalContext[K, V]{task: tc, slotOf: make(map[K]int32), gen: 1}
}

// arm readies a pooled context for task tc: empty hashtable, counters
// zero. Slots survive; the intermediate buffer is emptied by the lmap
// phase that opens every local iteration.
func (lc *LocalContext[K, V]) arm(tc *mapreduce.TaskContext[K, V]) {
	lc.task = tc
	lc.resetState()
	lc.localIter = 0
	lc.ops = 0
}

// slot resolves key to its slot, assigning one on first sight and
// growing the per-slot tables to cover it.
func (lc *LocalContext[K, V]) slot(key K) int32 {
	if lc.keyIndex != nil {
		i := lc.keyIndex(key)
		if uint(i) >= uint(len(lc.keys)) {
			lc.checkIndex(key, i)
			lc.growSlots(i + 1)
		}
		lc.keys[i] = key
		return int32(i)
	}
	s, ok := lc.slotOf[key]
	if !ok {
		s = int32(len(lc.keys))
		lc.slotOf[key] = s
		lc.growSlots(len(lc.keys) + 1)
		lc.keys[s] = key
	}
	return s
}

// lookup is slot without the side effects: it reports whether key
// already has a slot. Safe for concurrent use during an lmap phase.
func (lc *LocalContext[K, V]) lookup(key K) (int32, bool) {
	if lc.keyIndex != nil {
		i := lc.keyIndex(key)
		lc.checkIndex(key, i)
		return int32(i), i < len(lc.keys)
	}
	s, ok := lc.slotOf[key]
	return s, ok
}

// checkIndex rejects a negative LocalSpec.KeyIndex result.
func (lc *LocalContext[K, V]) checkIndex(key K, i int) {
	if i < 0 {
		panic(fmt.Sprintf("core: LocalSpec.KeyIndex returned %d for key %v", i, key))
	}
}

// growSlots extends every per-slot table to n slots, the new ones zero
// (no group, never stamped).
func (lc *LocalContext[K, V]) growSlots(n int) {
	more := n - len(lc.keys)
	lc.keys = append(lc.keys, make([]K, more)...)
	lc.end = append(lc.end, make([]int32, more)...)
	lc.stateVal = append(lc.stateVal, make([]V, more)...)
	lc.stateGen = append(lc.stateGen, make([]uint32, more)...)
}

// EmitLocalIntermediate buffers one record for the next local reduce,
// the paper's EmitLocalIntermediate().
func (lc *LocalContext[K, V]) EmitLocalIntermediate(key K, value V) {
	if lc.parent != nil {
		lc.logKey = append(lc.logKey, key)
	} else {
		lc.logSlot = append(lc.logSlot, lc.slot(key))
	}
	lc.logVal = append(lc.logVal, value)
}

// EmitLocal stores one record into the local hashtable, the paper's
// EmitLocal(). Re-emitting a key overwrites its value; the key keeps its
// original position in the deterministic output order.
func (lc *LocalContext[K, V]) EmitLocal(key K, value V) {
	if lc.parent != nil {
		panic("core: EmitLocal called from lmap; hashtable writes belong to lreduce")
	}
	s := lc.slot(key)
	if lc.stateGen[s] != lc.gen {
		lc.stateGen[s] = lc.gen
		lc.stateOrder = append(lc.stateOrder, s)
	}
	lc.stateVal[s] = value
}

// Value reads the current hashtable entry for key, allowing lmap in a
// later local iteration to consume earlier lreduce output ("otherwise,
// lmap receives it as input", §IV).
func (lc *LocalContext[K, V]) Value(key K) (V, bool) {
	if lc.parent != nil {
		lc = lc.parent
	}
	if s, ok := lc.lookup(key); ok && lc.stateGen[s] == lc.gen {
		return lc.stateVal[s], true
	}
	var zero V
	return zero, false
}

// State invokes fn for every hashtable entry in deterministic
// (first-emitted) order.
func (lc *LocalContext[K, V]) State(fn func(K, V)) {
	for _, s := range lc.stateOrder {
		fn(lc.keys[s], lc.stateVal[s])
	}
}

// emitState is the default Output: every hashtable entry becomes a
// global record of the task, in first-emitted order.
func (lc *LocalContext[K, V]) emitState() {
	for _, s := range lc.stateOrder {
		lc.task.Emit(lc.keys[s], lc.stateVal[s])
	}
}

// Len returns the number of entries in the local hashtable.
func (lc *LocalContext[K, V]) Len() int { return len(lc.stateOrder) }

// LocalIterations returns the number of completed local iterations.
func (lc *LocalContext[K, V]) LocalIterations() int { return lc.localIter }

// Charge accounts ops primitive operations of local compute.
func (lc *LocalContext[K, V]) Charge(ops int64) { lc.ops += ops }

// resetState empties the hashtable (task start, and
// LocalSpec.ResetStatePerIteration) by moving to a fresh generation.
func (lc *LocalContext[K, V]) resetState() {
	lc.stateOrder = lc.stateOrder[:0]
	lc.gen++
	if lc.gen == 0 { // wrapped: stamps from 2^32 resets ago must not match
		clear(lc.stateGen)
		lc.gen = 1
	}
}

// clearIntermediate empties the intermediate buffer and the grouping
// built from it, keeping all capacity.
func (lc *LocalContext[K, V]) clearIntermediate() {
	for _, s := range lc.order {
		lc.end[s] = 0
	}
	lc.order = lc.order[:0]
	lc.logSlot = lc.logSlot[:0]
	lc.logKey = lc.logKey[:0]
	lc.logVal = lc.logVal[:0]
}

// group counting-sorts the emission log into slab: groups in
// first-emitted key order, values within a group in record order. Pass
// one sizes the groups, a prefix sum over order turns sizes into start
// cursors, and pass two scatters values through the cursors, leaving
// end[s] at the end of slot s's group.
func (lc *LocalContext[K, V]) group() {
	for _, s := range lc.logSlot {
		if lc.end[s] == 0 {
			lc.order = append(lc.order, s)
		}
		lc.end[s]++
	}
	var sum int32
	for _, s := range lc.order {
		n := lc.end[s]
		lc.end[s] = sum
		sum += n
	}
	lc.slab = slices.Grow(lc.slab[:0], len(lc.logVal))[:len(lc.logVal)]
	for i, s := range lc.logSlot {
		lc.slab[lc.end[s]] = lc.logVal[i]
		lc.end[s]++
	}
}

// LocalSpec describes the inner (local) MapReduce of one gmap task. P is
// the partition payload type, E the local element type, K/V the key-value
// types shared with the global job.
type LocalSpec[P any, E any, K comparable, V any] struct {
	// Elements lists the lmap input (the paper's xs) for one local
	// iteration. It is re-evaluated every local iteration, so partitions
	// whose active element set shrinks (SSSP frontiers) can return fewer
	// elements as local work drains.
	Elements func(part P) []E

	// LMap processes one element, reading prior local results via
	// lc.Value and emitting via lc.EmitLocalIntermediate. It must not
	// call lc.EmitLocal; writes to the hashtable belong to lreduce.
	LMap func(lc *LocalContext[K, V], part P, elem E)

	// LReduce folds one locally-grouped key, emitting via lc.EmitLocal.
	LReduce func(lc *LocalContext[K, V], part P, key K, values []V)

	// Apply, if non-nil, integrates the local reduce output back into
	// the partition payload after each local iteration (e.g. writing new
	// ranks into a dense per-partition array). Runs at the partial
	// synchronization barrier.
	Apply func(part P, lc *LocalContext[K, V])

	// Converged reports whether local iterations should stop. Checked
	// after every local iteration (post-Apply). Required unless
	// MaxLocalIters > 0.
	Converged func(part P, lc *LocalContext[K, V]) bool

	// MaxLocalIters caps local iterations; 0 means no cap. Setting 1
	// degenerates the eager formulation to the general one (one local
	// sweep per global synchronization) — the ablation benches use this.
	MaxLocalIters int

	// Output emits the gmap task's global records after local
	// convergence. If nil, every hashtable entry is emitted unchanged
	// (the Figure 1 default: "for each value in lreduce-output
	// EmitIntermediate(key, value)").
	Output func(tc *mapreduce.TaskContext[K, V], part P, lc *LocalContext[K, V])

	// KeyIndex, if non-nil, declares that keys are small dense
	// non-negative integers: KeyIndex(k) is k's index, distinct keys have
	// distinct indices, and the context addresses its tables by it
	// directly (sized to the largest index seen) instead of hashing every
	// emitted key. A negative index panics. Leave nil for any other key
	// type.
	KeyIndex func(key K) int

	// Threads sizes the intra-task thread pool for lmap execution
	// (§IV: "local map and local reduce operations can use a thread-pool
	// to extract further parallelism"). 0 or 1 disables threading.
	Threads int

	// ResetStatePerIteration clears the hashtable before each local
	// reduce, so it holds exactly one local iteration's lreduce output.
	// Applications whose lreduce re-emits its full state every iteration
	// (K-Means: every cluster's accumulated members) need this to keep
	// stale entries from earlier iterations out of the global emission;
	// applications whose hashtable monotonically accumulates
	// (PageRank ranks, SSSP distances) leave it false.
	ResetStatePerIteration bool
}

func (s *LocalSpec[P, E, K, V]) validate() error {
	if s.Elements == nil {
		return fmt.Errorf("core: LocalSpec.Elements is required")
	}
	if s.LMap == nil {
		return fmt.Errorf("core: LocalSpec.LMap is required")
	}
	if s.LReduce == nil {
		return fmt.Errorf("core: LocalSpec.LReduce is required")
	}
	if s.Converged == nil && s.MaxLocalIters <= 0 {
		return fmt.Errorf("core: LocalSpec needs Converged or MaxLocalIters to terminate")
	}
	return nil
}

// BuildGMap composes lmap and lreduce into a global map function,
// reproducing the paper's Figure 1. The returned MapFunc runs local
// MapReduce iterations to local convergence — charging one cheap partial
// synchronization per local iteration instead of a global barrier — and
// then emits the hashtable as the task's global output.
//
// The MapFunc pools its LocalContexts: a task takes one, re-arms it and
// returns it when done, so from the second global iteration on a task
// runs in already-sized tables whichever split the context last served.
// A task that panics keeps its context out of the pool.
//
// BuildGMap panics on an invalid spec; specs are static program
// structure, so this is a programming error, not runtime input.
func BuildGMap[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V]) mapreduce.MapFunc[P, K, V] {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	var pool sync.Pool
	return func(tc *mapreduce.TaskContext[K, V], split mapreduce.Split[P]) {
		lc, ok := pool.Get().(*LocalContext[K, V])
		if ok {
			lc.arm(tc)
		} else {
			lc = spec.newContext(tc)
		}
		runTask(spec, lc, tc, split.Data)
		pool.Put(lc)
	}
}

// newContext returns an empty context serving tc with the spec's key
// resolver.
func (s *LocalSpec[P, E, K, V]) newContext(tc *mapreduce.TaskContext[K, V]) *LocalContext[K, V] {
	lc := newLocalContext(tc)
	if s.KeyIndex != nil {
		lc.keyIndex, lc.slotOf = s.KeyIndex, nil
	}
	return lc
}

// runTask is one gmap task on an armed context: local iterations to
// local convergence, then the global emission.
func runTask[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V], lc *LocalContext[K, V], tc *mapreduce.TaskContext[K, V], part P) {
	for {
		elems := spec.Elements(part)
		runLMapPhase(spec, lc, part, elems)
		// Partial synchronization barrier: group lmap output, run
		// lreduce, integrate, count one local sync.
		if spec.ResetStatePerIteration {
			lc.resetState()
		}
		runLReducePhase(spec, lc, part)
		tc.LocalSync()
		lc.localIter++
		if spec.Apply != nil {
			spec.Apply(part, lc)
		}
		if spec.MaxLocalIters > 0 && lc.localIter >= spec.MaxLocalIters {
			break
		}
		if spec.Converged != nil && spec.Converged(part, lc) {
			break
		}
	}
	// Charge accumulated local compute, discounted by the intra-task
	// thread pool (bounded by the cores available to one map slot).
	tc.Charge(discountOps(lc.ops, spec.Threads))
	tc.Counter("core.local_iterations", int64(lc.localIter))
	if spec.Output != nil {
		spec.Output(tc, part, lc)
	} else {
		lc.emitState()
	}
}

// discountOps models the local thread pool's speedup on charged compute.
// The pool cannot exceed the cores available to one map slot; the engine
// reads the bound at pricing time, so here we cap at a conservative 2
// (Table I: 8 EC2 compute units across 4 map slots). Functional
// parallelism is real regardless; this only affects simulated time.
func discountOps(ops int64, threads int) int64 {
	if threads <= 1 {
		return ops
	}
	eff := float64(threads)
	if eff > 2 {
		eff = 2
	}
	return int64(float64(ops) / eff)
}

// runLMapPhase applies LMap to every element, on one goroutine or on
// the shared lmap thread pool with deterministic merge order.
func runLMapPhase[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V], lc *LocalContext[K, V], part P, elems []E) {
	lc.clearIntermediate()
	if spec.Threads <= 1 || len(elems) < 2*spec.Threads {
		for _, e := range elems {
			spec.LMap(lc, part, e)
		}
		return
	}
	// Shard elements into contiguous chunks; each chunk runs on the
	// shared pool and logs into a private shard context. Appending the
	// shard logs in shard order gives the one log a serial sweep over
	// elems would have written, so grouping sees keys first emitted by
	// shard then record order, and a key's values by shard then record
	// order. The hashtable (read-only during lmap) is reached through
	// the parent. Chunk panics are captured and re-raised on the task
	// goroutine so the engine's per-task recovery still catches bad user
	// code (the pool itself must never see a panic).
	n := spec.Threads
	for len(lc.shards) < n {
		lc.shards = append(lc.shards, &LocalContext[K, V]{parent: lc})
		lc.panics = append(lc.panics, nil)
	}
	shards, panics := lc.shards[:n], lc.panics[:n]
	lc.wg.Add(n)
	for w := 0; w < n; w++ {
		lo := w * len(elems) / n
		hi := (w + 1) * len(elems) / n
		chunk := elems[lo:hi]
		sh := shards[w]
		sh.clearIntermediate()
		sh.ops = 0 // merged into the parent at the end of each phase
		lmapPool().Submit(func() {
			defer lc.wg.Done()
			defer func() { panics[w] = recover() }()
			for _, e := range chunk {
				spec.LMap(sh, part, e)
			}
		})
	}
	lc.wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	for _, sh := range shards {
		for _, k := range sh.logKey {
			lc.logSlot = append(lc.logSlot, lc.slot(k))
		}
		lc.logVal = append(lc.logVal, sh.logVal...)
		lc.ops += sh.ops
	}
}

// runLReducePhase groups the intermediate log and folds every key group
// through LReduce in deterministic first-emitted order. The values slice
// aliases the context's slab and is valid for the duration of the call.
func runLReducePhase[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V], lc *LocalContext[K, V], part P) {
	lc.group()
	var lo int32
	for _, s := range lc.order {
		hi := lc.end[s]
		spec.LReduce(lc, part, lc.keys[s], lc.slab[lo:hi:hi])
		lo = hi
	}
}
