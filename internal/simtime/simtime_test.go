package simtime

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Microsecond, "µs"},
		{20 * Millisecond, "ms"},
		{5 * Second, "s"},
		{3 * Minute, "m"},
	}
	for _, c := range cases {
		if got := c.d.String(); !strings.Contains(got, c.want) {
			t.Errorf("String(%v) = %q, want unit %q", float64(c.d), got, c.want)
		}
	}
}

func TestMaxSumOver(t *testing.T) {
	ds := []Duration{3, 1, 2}
	if MaxOver(ds) != 3 {
		t.Fatalf("MaxOver = %v", MaxOver(ds))
	}
	if SumOver(ds) != 6 {
		t.Fatalf("SumOver = %v", SumOver(ds))
	}
	if MaxOver(nil) != 0 || SumOver(nil) != 0 {
		t.Fatal("empty aggregates should be zero")
	}
}

func TestMakespanBasics(t *testing.T) {
	tasks := []Duration{4, 3, 2, 1}
	// One slot: serial.
	if got := MakespanLPT(tasks, 1); got != 10 {
		t.Fatalf("serial makespan = %v, want 10", got)
	}
	// Two slots: LPT gives {4,1} {3,2} -> 5.
	if got := MakespanLPT(tasks, 2); got != 5 {
		t.Fatalf("2-slot makespan = %v, want 5", got)
	}
	// More slots than tasks: longest task dominates.
	if got := MakespanLPT(tasks, 10); got != 4 {
		t.Fatalf("10-slot makespan = %v, want 4", got)
	}
	if got := MakespanLPT(nil, 4); got != 0 {
		t.Fatalf("empty makespan = %v, want 0", got)
	}
}

// Makespan invariants: at least max task and work/slots; at most serial
// sum; monotone non-increasing in slot count.
func TestMakespanInvariants(t *testing.T) {
	f := func(raw []uint16, slots8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		slots := int(slots8)%16 + 1
		tasks := make([]Duration, len(raw))
		var sum, max Duration
		for i, r := range raw {
			tasks[i] = Duration(r) * Millisecond
			sum += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		got := MakespanLPT(tasks, slots)
		lower := max
		if perfect := sum / Duration(slots); perfect > lower {
			lower = perfect
		}
		if got < lower-1e-9 || got > sum+1e-9 {
			return false
		}
		more := MakespanLPT(tasks, slots+1)
		return more <= got+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// List-scheduling quality: verify against the trivial lower bound
// max(longest task, sum/slots). LPT's 4/3 guarantee is relative to OPT,
// which can itself exceed this lower bound (five near-equal tasks on four
// slots force one slot to take two of them), so the checkable bound
// against the trivial lower is Graham's list-scheduling factor 2 - 1/m.
func TestMakespanLPTQuality(t *testing.T) {
	f := func(raw []uint16, slots8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		slots := int(slots8)%8 + 1
		tasks := make([]Duration, len(raw))
		var sum, max Duration
		for i, r := range raw {
			tasks[i] = Duration(r%1000) * Millisecond
			sum += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		lower := max
		if perfect := sum / Duration(slots); perfect > lower {
			lower = perfect
		}
		got := MakespanLPT(tasks, slots)
		if lower == 0 {
			return got == 0
		}
		return float64(got)/float64(lower) <= 2-1/float64(slots)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanDeterminism(t *testing.T) {
	tasks := []Duration{5, 5, 5, 1, 1, 1, 9}
	a := MakespanLPT(tasks, 3)
	b := MakespanLPT(tasks, 3)
	if math.Abs(float64(a-b)) > 0 {
		t.Fatal("makespan not deterministic")
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var h EventHeap
	h.Push(3*Second, 0)
	h.Push(1*Second, 1)
	h.Push(2*Second, 2)
	h.Push(1*Second, 3) // same time as id 1, scheduled later
	var order []int
	for h.Len() > 0 {
		order = append(order, h.Pop().ID)
	}
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

func TestEventHeapTieBreakIsFIFO(t *testing.T) {
	var h EventHeap
	for id := 0; id < 50; id++ {
		h.Push(5*Second, id)
	}
	for id := 0; id < 50; id++ {
		if got := h.Pop(); got.ID != id {
			t.Fatalf("tie-break not FIFO: got %d at position %d", got.ID, id)
		}
	}
}

func TestEventHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap did not panic")
		}
	}()
	var h EventHeap
	h.Pop()
}

func TestEventHeapPeek(t *testing.T) {
	var h EventHeap
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap reported an event")
	}
	h.Push(3*Second, 0)
	h.Push(1*Second, 1)
	h.Push(2*Second, 2)
	ev, ok := h.Peek()
	if !ok || ev.ID != 1 || ev.At != 1*Second {
		t.Fatalf("Peek = %+v, want id 1 at 1s", ev)
	}
	if h.Len() != 3 {
		t.Fatal("Peek consumed an event")
	}
	if got := h.Pop(); got.ID != 1 {
		t.Fatalf("heap order disturbed: popped %d", got.ID)
	}
}

// TestEventHeapMatchesSortedSlice drives the heap and a naive model — a
// slice kept sorted by (At, push order) — with the same random pushes and
// pops, the timestamps drawn from five values so nearly every event ties
// with others: the order ties pop in is part of every simulated time. Pop,
// Peek and Len agree at every step.
func TestEventHeapMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h EventHeap
	var model []Event
	var pushes int64
	// Pushes outnumber pops for the first half and pops pushes for the
	// second, so the heap grows to a couple of thousand events and drains.
	const steps = 20000
	for step := 0; step < steps; step++ {
		if push := rng.Intn(10) < 6; len(model) == 0 || push == (step < steps/2) {
			e := Event{At: Duration(rng.Intn(5)) * Millisecond, Seq: pushes, ID: step}
			pushes++
			h.Push(e.At, e.ID)
			// After the last event due at or before e.At: FIFO among ties.
			i := sort.Search(len(model), func(i int) bool { return model[i].At > e.At })
			model = slices.Insert(model, i, e)
		} else {
			got, want := h.Pop(), model[0]
			model = model[1:]
			if got != want {
				t.Fatalf("step %d: popped %+v, the sorted slice %+v", step, got, want)
			}
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d: Len %d, the sorted slice holds %d", step, h.Len(), len(model))
		}
		head, ok := h.Peek()
		if ok != (len(model) > 0) || (ok && head != model[0]) {
			t.Fatalf("step %d: Peek %+v %v, the sorted slice %d events", step, head, ok, len(model))
		}
	}
}
