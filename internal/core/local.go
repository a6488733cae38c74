package core

import (
	"fmt"

	"repro/internal/mapreduce"
)

// LocalContext is the emission interface available to lmap and lreduce
// inside one gmap task. It owns the paper's per-task hashtable: lmap
// output accumulates in an intermediate buffer via EmitLocalIntermediate;
// lreduce folds each locally-grouped key and stores results via
// EmitLocal; at the end of local iterations the hashtable contents become
// the gmap task's global emission.
//
// It is the plain dictionary-merge model of that runtime: the buffer maps
// each key to its values in emission order, and both the groups lreduce
// sees and the hashtable's entries run in first-emitted key order. The
// eager workloads sweep natively and their tests hold each kernel to its
// lmap/lreduce program run through this context, so it is written to be
// obviously right, not fast. A context serves one gmap task.
type LocalContext[K comparable, V any] struct {
	// The intermediate buffer (EmitLocalIntermediate): keys lists this
	// local iteration's keys in first-emitted order, vals[i] the values
	// emitted under keys[i] in emission order, and group maps a key to
	// its index. vals keeps its slices across iterations for reuse.
	group map[K]int
	keys  []K
	vals  [][]V

	// The hashtable (EmitLocal): state holds the entries, stateKeys their
	// keys in first-emitted order.
	state     map[K]V
	stateKeys []K

	// inLMap is set for the length of an lmap phase, where EmitLocal is a
	// bug and panics.
	inLMap bool
	ops    int64
}

// newLocalContext returns an empty context.
func newLocalContext[K comparable, V any]() *LocalContext[K, V] {
	return &LocalContext[K, V]{group: make(map[K]int), state: make(map[K]V)}
}

// EmitLocalIntermediate buffers one record for the next local reduce,
// the paper's EmitLocalIntermediate().
func (lc *LocalContext[K, V]) EmitLocalIntermediate(key K, value V) {
	i, ok := lc.group[key]
	if !ok {
		i = len(lc.keys)
		lc.group[key] = i
		lc.keys = append(lc.keys, key)
		if i == len(lc.vals) {
			lc.vals = append(lc.vals, nil)
		}
		lc.vals[i] = lc.vals[i][:0]
	}
	lc.vals[i] = append(lc.vals[i], value)
}

// EmitLocal stores one record into the local hashtable, the paper's
// EmitLocal(). Re-emitting a key overwrites its value; the key keeps its
// original position in the deterministic output order.
func (lc *LocalContext[K, V]) EmitLocal(key K, value V) {
	if lc.inLMap {
		panic("core: EmitLocal called from lmap; hashtable writes belong to lreduce")
	}
	if _, ok := lc.state[key]; !ok {
		lc.stateKeys = append(lc.stateKeys, key)
	}
	lc.state[key] = value
}

// Value reads the current hashtable entry for key, allowing lmap in a
// later local iteration to consume earlier lreduce output ("otherwise,
// lmap receives it as input", §IV).
func (lc *LocalContext[K, V]) Value(key K) (V, bool) {
	v, ok := lc.state[key]
	return v, ok
}

// State invokes fn for every hashtable entry in deterministic
// (first-emitted) order.
func (lc *LocalContext[K, V]) State(fn func(K, V)) {
	for _, k := range lc.stateKeys {
		fn(k, lc.state[k])
	}
}

// Len returns the number of entries in the local hashtable.
func (lc *LocalContext[K, V]) Len() int { return len(lc.stateKeys) }

// Charge accounts ops primitive operations of local compute.
func (lc *LocalContext[K, V]) Charge(ops int64) { lc.ops += ops }

// resetState empties the hashtable (LocalSpec.ResetStatePerIteration).
func (lc *LocalContext[K, V]) resetState() {
	clear(lc.state)
	lc.stateKeys = lc.stateKeys[:0]
}

// LocalSpec describes the inner (local) MapReduce of one gmap task. P is
// the partition payload type, E the local element type, K/V the key-value
// types shared with the global job.
type LocalSpec[P any, E any, K comparable, V any] struct {
	// Elements lists the lmap input (the paper's xs) for one local
	// iteration. It is re-evaluated every local iteration, so a
	// partition whose set of elements with work left shrinks can return
	// fewer elements as local work drains.
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
	// leaves one local sweep per global synchronization, which is not
	// the general formulation: the sweep reads this iteration's local
	// values, where general reads only the last barrier's.
	MaxLocalIters int

	// Output emits the gmap task's global records after local
	// convergence. If nil, every hashtable entry is emitted unchanged
	// (the Figure 1 default: "for each value in lreduce-output
	// EmitIntermediate(key, value)").
	Output func(tc *mapreduce.TaskContext[K, V], part P, lc *LocalContext[K, V])

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
// BuildGMap panics on an invalid spec; specs are static program
// structure, so this is a programming error, not runtime input.
func BuildGMap[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V]) mapreduce.MapFunc[P, K, V] {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	return func(tc *mapreduce.TaskContext[K, V], split mapreduce.Split[P]) {
		runTask(spec, newLocalContext[K, V](), tc, split.Data)
	}
}

// runTask is one gmap task: local iterations to local convergence, then
// the global emission.
func runTask[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V], lc *LocalContext[K, V], tc *mapreduce.TaskContext[K, V], part P) {
	iters := 0
	for {
		clear(lc.group)
		lc.keys = lc.keys[:0]
		lc.inLMap = true
		for _, e := range spec.Elements(part) {
			spec.LMap(lc, part, e)
		}
		lc.inLMap = false
		// Partial synchronization barrier: run lreduce over the groups,
		// integrate, count one local sync.
		if spec.ResetStatePerIteration {
			lc.resetState()
		}
		for i, k := range lc.keys {
			spec.LReduce(lc, part, k, lc.vals[i])
		}
		tc.LocalSync()
		iters++
		if spec.Apply != nil {
			spec.Apply(part, lc)
		}
		if spec.MaxLocalIters > 0 && iters >= spec.MaxLocalIters {
			break
		}
		if spec.Converged != nil && spec.Converged(part, lc) {
			break
		}
	}
	tc.Charge(lc.ops)
	if spec.Output != nil {
		spec.Output(tc, part, lc)
		return
	}
	for _, k := range lc.stateKeys {
		tc.Emit(k, lc.state[k])
	}
}
