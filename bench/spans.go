package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Parent 0 marks a root. An aggregated span (Calls >
// 0) stands for many short calls of one scheduler phase inside its
// parent: its length is their summed busy time, and it is laid end to
// end with its aggregated siblings from the parent's start, so the
// parent's self time is what the phases do not account for.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Calls    int64  `json:"calls,omitempty"`
	SelfNS   int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the benchmark exits. A nil
// recorder is tracing off: begin and end are no-ops.
type recorder struct {
	origin   time.Time
	workload string
	iter     int
	spans    []span
	open     []int // IDs of the spans begun and not yet ended, outermost first
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span under the innermost open span and returns its ID.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Workload: r.workload, Iter: r.iter, StartNS: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned and reports its length in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	s := &r.spans[id-1]
	s.EndNS = r.now()
	r.open = r.open[:len(r.open)-1]
	return float64(s.EndNS-s.StartNS) / 1e9
}

// aggregate adds one aggregated child to the innermost open span,
// starting offset nanoseconds after the parent did.
func (r *recorder) aggregate(name string, calls int64, busy, offset time.Duration) {
	if r == nil {
		return
	}
	parent := r.spans[r.open[len(r.open)-1]-1]
	start := parent.StartNS + int64(offset)
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent.ID, Name: name,
		Workload: r.workload, Iter: r.iter, StartNS: start, EndNS: start + int64(busy), Calls: calls})
}

// fillSelfTimes sets every span's SelfNS: its length minus the part of
// it that its children cover.
func fillSelfTimes(spans []span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < upTo {
				lo = upTo
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}
