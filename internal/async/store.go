package async

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
)

// Snapshot is one published version of a partition's shared state.
type Snapshot[D any] struct {
	// Part is the publishing partition.
	Part int
	// Version counts the partition's publications; version 0 is the
	// initial state, visible from virtual time zero.
	Version int
	// At is the virtual time the version became visible.
	At simtime.Duration
	// Data is the published payload (boundary ranks, border distances,
	// cluster accumulators, ...). Readers must treat it as immutable.
	Data D
}

// slot is one version as the history stores it. Its partition is the
// shard's and its version is its index, so neither is stored; reads
// that hand out a Snapshot put them back.
type slot[D any] struct {
	at   simtime.Duration
	data D
}

// A shard's history is cut into segments that are never moved or
// copied: version v lives in one fixed slot for the life of the store.
// The first segment holds 1<<firstSegBits versions, each later one
// doubles the history's capacity (so segment k >= 1 has as many slots as
// all segments before it) until segments reach 1<<capSegBits slots, and
// from there every segment has that size. A shard with a couple of dozen
// versions therefore pays for 32 slots, and a long one never has more
// than 1<<capSegBits slots unused.
const (
	firstSegBits = 5
	capSegBits   = 10
)

// locate maps version v to its segment and its offset inside it.
func locate(v int) (seg, off int) {
	if v >= 1<<capSegBits {
		return capSegBits - firstSegBits + v>>capSegBits, v & (1<<capSegBits - 1)
	}
	seg = bits.Len(uint(v >> firstSegBits))
	if seg == 0 {
		return 0, v
	}
	return seg, v - 1<<(firstSegBits+seg-1)
}

// segSize is the number of slots in segment seg.
func segSize(seg int) int {
	return 1 << min(firstSegBits+max(seg-1, 0), capSegBits)
}

// shard is one partition's slice of the store: an append-only version
// history in segments, reached through a directory of segments and
// bounded by an atomic published length. Writers serialize on mu;
// readers never take it.
//
// The writer fills the slot of version n, then (only when that slot
// opened a new segment) stores a directory that includes the segment,
// then stores the length n+1. A reader loads the length first and the
// directory second, and touches only slots below the length it loaded:
// every such slot was written, and its segment entered the directory,
// before that length was stored, and no slot is written twice. So a
// reader can never see the slot being written, and needs no lock.
type shard[D any] struct {
	mu sync.Mutex
	// n is the published length: versions 0..n-1 are readable.
	n atomic.Int64
	// dir is the segment directory, replaced (never edited) when a
	// segment is added; a directory that has been stored is immutable.
	dir    atomic.Pointer[[][]slot[D]]
	sealed bool // owner will never publish again (force-stopped, or the run drained); guarded by mu
}

// history is a reader's view of one shard: versions 0..n-1, all of them
// immutable.
type history[D any] struct {
	segs [][]slot[D]
	n    int
}

// load takes a consistent view of the shard: the length first, then a
// directory at least as new.
func (sh *shard[D]) load() history[D] {
	n := int(sh.n.Load())
	if n == 0 {
		return history[D]{}
	}
	return history[D]{segs: *sh.dir.Load(), n: n}
}

// ref returns version v in place; v must be in [0, h.n).
func (h history[D]) ref(v int) *slot[D] {
	seg, off := locate(v)
	return &h.segs[seg][off]
}

// visible returns the last version with At <= at, or -1; publication
// times are non-decreasing.
func (h history[D]) visible(at simtime.Duration) int {
	return sort.Search(h.n, func(v int) bool { return h.ref(v).at > at }) - 1
}

// visibleFrom is visible with a cursor: it scans forward from hint, and
// bisects only when hint is already past at. It returns the version and
// its slot, nil when nothing is visible at at. See Store.VisibleFrom.
func (h history[D]) visibleFrom(at simtime.Duration, hint int) (v int, sl *slot[D]) {
	if h.n == 0 {
		return 0, nil
	}
	v = min(max(hint, 0), h.n-1)
	// Walk forward inside the hint's segment, stepping to the next one
	// only at its end: one locate per call, not one per version looked at.
	seg, off := locate(v)
	slots := h.segs[seg]
	sl = &slots[off]
	if sl.at > at {
		if v = h.visible(at); v < 0 {
			return 0, nil
		}
		return v, h.ref(v)
	}
	for v+1 < h.n {
		if off++; off == len(slots) {
			seg, off = seg+1, 0
			slots = h.segs[seg]
		}
		if slots[off].at > at {
			break
		}
		v, sl = v+1, &slots[off]
	}
	return v, sl
}

// Store is the versioned shared state store at the center of the
// fully-asynchronous runtime: each partition appends immutable versions
// of its boundary state; readers fetch the newest version visible at
// their own virtual time, which may be several versions behind the
// writer. The store itself never blocks writers on readers — the
// bounded-staleness gate lives in the engine, which decides when a
// worker may advance.
//
// The store is sharded per partition: each shard has its own writer
// mutex and an atomically readable history, so every read is lock-free
// and never blocks, and publications to different partitions never
// contend. A partition's version v is element v of its history, so the
// schedulers work on indices (VisibleFrom, At, Latest) and copy a
// Snapshot out only where a step needs one. It is safe for concurrent
// use: the deterministic virtual-time engine is one client, and tests
// hammer it from many goroutines under the race detector to keep it
// honest as a standalone component.
type Store[D any] struct {
	shards []shard[D]
}

// NewStore returns an empty store for n partitions. Every partition must
// publish its version 0 (the initial state) before any reader runs.
func NewStore[D any](n int) *Store[D] {
	return &Store[D]{shards: make([]shard[D], n)}
}

// Publish appends a new version of partition p, visible at virtual time
// at. Versions must be dense (latest+1, starting at 0) and publication
// times non-decreasing per partition; violations are engine bugs and
// return errors rather than corrupting history. Publishing writes one
// slot in place: it allocates only when the version opens a new segment.
func (s *Store[D]) Publish(p, version int, at simtime.Duration, data D) error {
	if p < 0 || p >= len(s.shards) {
		return fmt.Errorf("async: publish to partition %d of %d", p, len(s.shards))
	}
	sh := &s.shards[p]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sealed {
		return fmt.Errorf("async: publish to sealed partition %d", p)
	}
	h := sh.load()
	if version != h.n {
		return fmt.Errorf("async: partition %d published version %d, want %d", p, version, h.n)
	}
	if h.n > 0 {
		if last := h.ref(h.n - 1).at; at < last {
			return fmt.Errorf("async: partition %d published version %d at %v, before version %d at %v",
				p, version, at, h.n-1, last)
		}
	}
	seg, off := locate(version)
	if seg < len(h.segs) {
		h.segs[seg][off] = slot[D]{at, data}
	} else {
		slots := make([]slot[D], segSize(seg))
		slots[off] = slot[D]{at, data}
		dir := make([][]slot[D], seg+1)
		copy(dir, h.segs)
		dir[seg] = slots
		sh.dir.Store(&dir)
	}
	sh.n.Store(int64(version + 1))
	return nil
}

// Latest returns partition p's newest published version, or -1 if p has
// not published yet. Lock-free.
func (s *Store[D]) Latest(p int) int {
	return int(s.shards[p].n.Load()) - 1
}

// At returns the virtual time partition p's version v became visible.
// ok is false when p has not published version v (yet). Lock-free, and
// it never blocks: it is how a gate asks when an existing version will
// reach it.
func (s *Store[D]) At(p, v int) (at simtime.Duration, ok bool) {
	h := s.shards[p].load()
	if v < 0 || v >= h.n {
		return 0, false
	}
	return h.ref(v).at, true
}

// fill writes partition p's version v into *dst: the read by reference,
// which copies a version once, straight to where a step will read it. v
// must be a version the caller has seen published: one VisibleFrom or
// Latest returned, or one At reported ok for.
func (s *Store[D]) fill(dst *Snapshot[D], p, v int) {
	sl := s.shards[p].load().ref(v)
	// Field by field: a composite literal is built on the stack in
	// 8-byte stores and copied out in 16-byte loads, which stall on them.
	dst.Part, dst.Version, dst.At, dst.Data = p, v, sl.at, sl.data
}

// VisibleFrom returns the newest version of partition p visible at
// virtual time at — the index into p's history, which is the version
// number. ok is false when p has published nothing by then (only
// possible before its version 0). Lock-free.
//
// hint is a reader-supplied cursor: the version the same reader's
// previous call returned. When the reader's times are non-decreasing —
// every engine reader's are, since worker clocks only advance — the
// scan from the hint is O(1) amortized instead of a binary search's
// O(log n). A hint that overshoots (non-monotone caller) falls back to
// the binary search, so any hint is merely a performance input, never a
// correctness one.
func (s *Store[D]) VisibleFrom(p int, at simtime.Duration, hint int) (v int, ok bool) {
	v, sl := s.shards[p].load().visibleFrom(at, hint)
	return v, sl != nil
}

// ReadAtFrom is VisibleFrom returning the snapshot as well: the
// snapshot, the index to pass as the next hint, and ok=false only when
// nothing is visible at `at`.
func (s *Store[D]) ReadAtFrom(p int, at simtime.Duration, hint int) (snap Snapshot[D], idx int, ok bool) {
	idx, sl := s.shards[p].load().visibleFrom(at, hint)
	if sl == nil {
		return snap, 0, false
	}
	return Snapshot[D]{Part: p, Version: idx, At: sl.at, Data: sl.data}, idx, true
}

// Seal marks partition p as permanently done publishing: its owner was
// force-stopped, or the run drained. Publishing to a sealed partition is
// an engine bug and is rejected; reads of existing history remain valid.
// Idempotent.
func (s *Store[D]) Seal(p int) {
	sh := &s.shards[p]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sealed = true
}
