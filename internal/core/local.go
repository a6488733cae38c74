package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/mapreduce"
)

// LocalContext is the emission interface available to lmap and lreduce
// inside one gmap task. It owns the paper's per-task hashtable: lmap
// output accumulates in an intermediate buffer via EmitLocalIntermediate;
// lreduce folds each locally-grouped key and stores results via
// EmitLocal; at the end of local iterations the hashtable contents become
// the gmap task's global emission.
//
// Everything is addressed by slot. Each distinct key is resolved once to
// a small integer that stays its slot for the context's life (see slot);
// the hashtable is a value and a generation stamp per slot. Slot numbers
// never reach user code: groups, State and the default Output all run in
// first-emitted order, which order and stateOrder record.
//
// The intermediate buffer is a plan that is replayed while it holds. A
// local iteration that has no plan logs its (key, value) emissions, and
// the partial-synchronization barrier counting-sorts the log into one
// slab (group), remembering each emission's slab position: the logged
// key sequence and those positions are the plan. The next iteration
// checks every emitted key against the plan's key at the same position
// and stores the value straight into the slab; if the iteration emits
// exactly the planned sequence the barrier has nothing to do. The first
// emission that differs, or a barrier reached early, demotes the
// iteration: the values stored so far go back into the log, the rest of
// the iteration logs, and the barrier groups the log and records a new
// plan. Either way lreduce sees the groups, key order and value order a
// fresh grouping of this iteration's emissions gives.
//
// A LocalContext is confined to one gmap task at a time. BuildGMap pools
// contexts and re-arms one per task, so a context outlives the task, its
// slot tables grow to the union of the key sets it has served, and the
// plan it carries may be another split's: the plan is only ever trusted
// key by key, so the task's first iteration demotes and replans.
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

	// Intermediate buffer (EmitLocalIntermediate). logKey/logVal are the
	// emission log of an iteration that is not replaying, in record
	// order; once grouped, logKey is the plan's key sequence and pos[i]
	// the slab position of its i-th emission. cursor is the number of
	// emissions replayed so far this iteration, or logging when the
	// iteration logs; planned says logKey, pos, order, end and slab are
	// one consistent grouping (false from a demotion to the next group).
	logKey  []K
	logVal  []V
	pos     []int32
	cursor  int
	planned bool

	// Grouping built at the barrier: order lists this iteration's slots
	// in first-emitted order, slab holds their values group by group, and
	// end[s] is the end of slot s's group in slab (a group starts where
	// the previous one in order ends). end[s] is zero outside order. A
	// replayed iteration leaves order and end as they are.
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

	// inLMap is set for the length of an lmap phase, where EmitLocal is a
	// bug and panics.
	inLMap bool

	// localIter is the completed local iteration count.
	localIter int
	ops       int64
}

// logging is the cursor of an iteration that logs its emissions: no plan
// is that long, so EmitLocalIntermediate's one bounds test sends every
// emission to the log.
const logging = math.MaxInt

// newLocalContext returns an empty context serving tc, resolving keys by
// interning.
func newLocalContext[K comparable, V any](tc *mapreduce.TaskContext[K, V]) *LocalContext[K, V] {
	return &LocalContext[K, V]{task: tc, slotOf: make(map[K]int32), gen: 1, cursor: logging}
}

// arm readies a pooled context for task tc: empty hashtable, counters
// zero. Slots and the plan survive; the lmap phase that opens every local
// iteration rewinds or empties the intermediate buffer.
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

// resolve is slot for the whole log: slots[i] becomes the slot of the
// i-th logged key. With a KeyIndex the loop is slot's first branch
// written out, which spares the barrier a call and a reload of the key
// table per record.
func (lc *LocalContext[K, V]) resolve(slots []int32) {
	index := lc.keyIndex
	if index == nil {
		for i, k := range lc.logKey {
			slots[i] = lc.slot(k)
		}
		return
	}
	keys := lc.keys
	for i, k := range lc.logKey {
		s := index(k)
		if uint(s) >= uint(len(keys)) {
			lc.checkIndex(k, s)
			lc.growSlots(s + 1)
			keys = lc.keys
		}
		keys[s] = k
		slots[i] = int32(s)
	}
}

// lookup is slot without the side effects: it reports whether key
// already has a slot.
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
// the paper's EmitLocalIntermediate(). While the iteration follows the
// plan the value goes straight to its place in the slab; the first record
// that does not (another key, or one more than planned) demotes the
// iteration, and from there records are logged.
func (lc *LocalContext[K, V]) EmitLocalIntermediate(key K, value V) {
	i := lc.cursor
	if i < len(lc.logKey) && lc.logKey[i] == key {
		lc.slab[lc.pos[i]] = value
		lc.cursor = i + 1
		return
	}
	if i != logging {
		lc.demote()
	}
	lc.logKey = append(lc.logKey, key)
	lc.logVal = append(lc.logVal, value)
}

// demote turns a replaying iteration into a logging one: the emissions
// replayed so far are the plan's first cursor keys, and their values are
// read back out of the slab positions they were stored at (the value log
// is the one the plan was grouped from, so it has the room). The old
// grouping is dropped.
func (lc *LocalContext[K, V]) demote() {
	n := lc.cursor
	lc.logKey = lc.logKey[:n]
	lc.logVal = lc.logVal[:n]
	for i, p := range lc.pos[:n] {
		lc.logVal[i] = lc.slab[p]
	}
	lc.dropGrouping()
}

// dropGrouping forgets the plan and the grouping it stands on; the
// iteration logs from here.
func (lc *LocalContext[K, V]) dropGrouping() {
	for _, s := range lc.order {
		lc.end[s] = 0
	}
	lc.order = lc.order[:0]
	lc.planned = false
	lc.cursor = logging
}

// EmitLocal stores one record into the local hashtable, the paper's
// EmitLocal(). Re-emitting a key overwrites its value; the key keeps its
// original position in the deterministic output order.
func (lc *LocalContext[K, V]) EmitLocal(key K, value V) {
	if lc.inLMap {
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

// beginIteration opens a local iteration's intermediate buffer: at the
// start of the plan if the context holds one, otherwise (and after an
// iteration that died between a demotion and its barrier) on an empty
// log.
func (lc *LocalContext[K, V]) beginIteration() {
	if lc.planned {
		lc.cursor = 0
		return
	}
	lc.dropGrouping()
	lc.logKey = lc.logKey[:0]
	lc.logVal = lc.logVal[:0]
}

// group is the barrier's half of the intermediate buffer. An iteration
// that replayed the whole plan has its values in place already. Any other
// is (by now) a log, which group counting-sorts into slab: groups in
// first-emitted key order, values within a group in record order. Pass
// one resolves slots and sizes the groups, a prefix sum over order turns
// sizes into start cursors, and pass two scatters values through the
// cursors, leaving end[s] at the end of slot s's group and pos[i] at the
// position emission i went to — the plan the next iteration replays.
func (lc *LocalContext[K, V]) group() {
	if lc.cursor != logging {
		if lc.cursor == len(lc.logKey) {
			return
		}
		lc.demote() // the iteration stopped short of the plan
	}
	n := len(lc.logKey)
	pos := slices.Grow(lc.pos[:0], n)[:n]
	lc.resolve(pos) // pos holds slots until pass two
	// The slot tables have their final size: work on the slice headers,
	// which the compiler cannot keep in registers through lc.
	end, order := lc.end, lc.order
	for _, s := range pos {
		if end[s] == 0 {
			order = append(order, s)
		}
		end[s]++
	}
	var sum int32
	for _, s := range order {
		c := end[s]
		end[s] = sum
		sum += c
	}
	slab, vals := slices.Grow(lc.slab[:0], n)[:n], lc.logVal[:n]
	for i, s := range pos {
		p := end[s]
		slab[p] = vals[i]
		pos[i] = p
		end[s] = p + 1
	}
	lc.pos, lc.order, lc.slab = pos, order, slab
	lc.planned = true
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
	// lc.Value and emitting via lc.EmitLocalIntermediate. lc.EmitLocal
	// panics here; writes to the hashtable belong to lreduce.
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

// LocalIterationsCounter is the task counter a gmap adds its local
// iteration count to; Driver sums it into IterationStats.LocalIterations.
const LocalIterationsCounter = "core.local_iterations"

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
	tc.Charge(lc.ops)
	tc.Counter(LocalIterationsCounter, int64(lc.localIter))
	if spec.Output != nil {
		spec.Output(tc, part, lc)
	} else {
		lc.emitState()
	}
}

// runLMapPhase applies LMap to every element in order.
func runLMapPhase[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V], lc *LocalContext[K, V], part P, elems []E) {
	lc.beginIteration()
	lc.inLMap = true
	for _, e := range elems {
		spec.LMap(lc, part, e)
	}
	lc.inLMap = false
}

// runLReducePhase groups the intermediate buffer and folds every key group
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
