package core

import (
	"fmt"
	"slices"
	"testing"
)

// The differential tests cannot tell a replayed iteration from a
// regrouped one — that is their point — so this one looks inside: an
// iteration that repeats the plan's keys must take the replay path
// (nothing logged, order and end untouched), and one that leaves the plan
// must arrive at the barrier as the log it would have written without a
// plan.

// emitAll opens an iteration on lc and emits recs.
func emitAll(lc *LocalContext[int64, int], recs []scriptRec) {
	lc.beginIteration()
	for _, r := range recs {
		lc.EmitLocalIntermediate(int64(r.key), r.val)
	}
}

// groupsOf runs the barrier and lists the groups as lreduce would see
// them.
func groupsOf(lc *LocalContext[int64, int]) []string {
	lc.group()
	var (
		out []string
		lo  int32
	)
	for _, s := range lc.order {
		hi := lc.end[s]
		out = append(out, fmt.Sprint(lc.keys[s], lc.slab[lo:hi]))
		lo = hi
	}
	return out
}

func TestReplayPathIsTakenAndLeft(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		lc := newLocalContext[int64, int](nil)
		if indexed {
			lc.keyIndex, lc.slotOf = func(k int64) int { return int(k) }, nil
		}
		plan := []scriptRec{{5, 1}, {3, 2}, {5, 3}, {7, 4}, {3, 5}}
		emitAll(lc, plan)
		if lc.cursor != logging || len(lc.logKey) != len(plan) {
			t.Fatalf("indexed %v: a context without a plan must log: cursor %d, %d logged", indexed, lc.cursor, len(lc.logKey))
		}
		if got, want := groupsOf(lc), []string{"5 [1 3]", "3 [2 5]", "7 [4]"}; !slices.Equal(got, want) {
			t.Fatalf("indexed %v: groups %v, want %v", indexed, got, want)
		}
		order, end := slices.Clone(lc.order), slices.Clone(lc.end)

		// The same keys again: every emission is stored in place.
		again := []scriptRec{{5, 10}, {3, 20}, {5, 30}, {7, 40}, {3, 50}}
		emitAll(lc, again)
		if lc.cursor != len(plan) || !lc.planned {
			t.Fatalf("indexed %v: repeating the plan's keys left the replay path: cursor %d, planned %v", indexed, lc.cursor, lc.planned)
		}
		if got, want := groupsOf(lc), []string{"5 [10 30]", "3 [20 50]", "7 [40]"}; !slices.Equal(got, want) {
			t.Fatalf("indexed %v: replayed groups %v, want %v", indexed, got, want)
		}
		if !slices.Equal(lc.order, order) || !slices.Equal(lc.end, end) {
			t.Fatalf("indexed %v: a replayed iteration rewrote the grouping: order %v end %v, were %v %v", indexed, lc.order, lc.end, order, end)
		}

		// A different key at the third emission: the two stored values go
		// back into the log and the iteration logs on.
		emitAll(lc, []scriptRec{{5, 11}, {3, 21}, {9, 31}, {7, 41}})
		if lc.cursor != logging || lc.planned {
			t.Fatalf("indexed %v: a diverging iteration stayed on the replay path", indexed)
		}
		if !slices.Equal(lc.logKey, []int64{5, 3, 9, 7}) || !slices.Equal(lc.logVal, []int{11, 21, 31, 41}) {
			t.Fatalf("indexed %v: log after demotion %v %v", indexed, lc.logKey, lc.logVal)
		}
		if got, want := groupsOf(lc), []string{"5 [11]", "3 [21]", "9 [31]", "7 [41]"}; !slices.Equal(got, want) {
			t.Fatalf("indexed %v: groups after demotion %v, want %v", indexed, got, want)
		}

		// Stopping short of the plan is found at the barrier.
		emitAll(lc, []scriptRec{{5, 12}, {3, 22}})
		if lc.cursor != 2 {
			t.Fatalf("indexed %v: a prefix of the plan must replay: cursor %d", indexed, lc.cursor)
		}
		if got, want := groupsOf(lc), []string{"5 [12]", "3 [22]"}; !slices.Equal(got, want) {
			t.Fatalf("indexed %v: groups of a short iteration %v, want %v", indexed, got, want)
		}

		// Running past it is found at the first emission beyond.
		emitAll(lc, []scriptRec{{5, 13}, {3, 23}, {3, 33}})
		if got, want := groupsOf(lc), []string{"5 [13]", "3 [23 33]"}; !slices.Equal(got, want) {
			t.Fatalf("indexed %v: groups of a long iteration %v, want %v", indexed, got, want)
		}

		// An empty iteration leaves an empty plan, which the next one
		// outgrows at once.
		emitAll(lc, nil)
		if got := groupsOf(lc); len(got) != 0 {
			t.Fatalf("indexed %v: groups of an empty iteration %v", indexed, got)
		}
		emitAll(lc, plan)
		if got, want := groupsOf(lc), []string{"5 [1 3]", "3 [2 5]", "7 [4]"}; !slices.Equal(got, want) {
			t.Fatalf("indexed %v: groups after an empty plan %v, want %v", indexed, got, want)
		}
	}
}
