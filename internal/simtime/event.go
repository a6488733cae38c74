package simtime

// Event is one pending occurrence in a discrete-event simulation: an
// opaque integer payload (typically a worker or task id) due at a virtual
// time. Seq breaks ties deterministically: events scheduled earlier fire
// first when due at the same instant, so simulations that schedule in a
// deterministic order replay identically.
type Event struct {
	At  Duration
	Seq int64
	ID  int
}

// EventHeap is a min-heap of events ordered by (At, Seq). The zero value
// is ready to use. It is not safe for concurrent use; like Clock, it is
// owned by a single scheduling loop.
type EventHeap struct {
	events  []Event
	nextSeq int64
}

// Len returns the number of pending events.
func (h *EventHeap) Len() int { return len(h.events) }

// Peek returns the earliest pending event without removing it; ok is
// false when the heap is empty. Schedulers read the head's time before
// popping: to fire what is due first, or to arm a timer.
//
//async:sched-only
func (h *EventHeap) Peek() (ev Event, ok bool) {
	if len(h.events) == 0 {
		return Event{}, false
	}
	return h.events[0], true
}

// Push schedules id at time at, stamping the next sequence number.
//
//async:sched-only
func (h *EventHeap) Push(at Duration, id int) {
	e := Event{At: at, Seq: h.nextSeq, ID: id}
	h.nextSeq++
	h.events = append(h.events, e)
	i := len(h.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		i = parent
	}
}

// Pop removes and returns the earliest event. Popping an empty heap is a
// scheduling bug and panics.
//
//async:sched-only
func (h *EventHeap) Pop() Event {
	if len(h.events) == 0 {
		panic("simtime: Pop on empty EventHeap")
	}
	top := h.events[0]
	last := len(h.events) - 1
	h.events[0] = h.events[last]
	h.events = h.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.events) && h.less(l, small) {
			small = l
		}
		if r < len(h.events) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.events[i], h.events[small] = h.events[small], h.events[i]
		i = small
	}
	return top
}

func (h *EventHeap) less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}
