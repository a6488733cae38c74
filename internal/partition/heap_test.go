package partition

import (
	"math"
	"slices"
	"testing"
)

// swapHeap is the naive model of gainHeap: the textbook sift that swaps
// parent and child at every level, on the same comparisons.
type swapHeap struct{ a []gainItem }

func (h *swapHeap) push(it gainItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].gain >= h.a[i].gain {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

func (h *swapHeap) pop() gainItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.a[l].gain > h.a[big].gain {
			big = l
		}
		if r < last && h.a[r].gain > h.a[big].gain {
			big = r
		}
		if big == i {
			break
		}
		h.a[i], h.a[big] = h.a[big], h.a[i]
		i = big
	}
	return top
}

// FuzzGainHeapMatchesSwapHeap runs one script on gainHeap and on the swap
// heap. Each byte is an operation: the low three bits 0 or 1 pop (when
// there is something to pop), anything else pushes the next vertex id
// with one of six gains, so most entries tie with many others. Every pop
// must return the same vertex and gain, and the arrays must agree entry
// for entry after every operation: growPartition's output depends on the
// order equal gains surface in.
func FuzzGainHeapMatchesSwapHeap(f *testing.F) {
	f.Add([]byte{2, 3, 4, 0, 5, 1, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		gains := [...]int32{1, 1, 2, 2, 3, math.MaxInt32}
		var h gainHeap
		var model swapHeap
		var next int32
		for step, b := range script {
			if op := int(b & 7); op >= 2 {
				it := gainItem{v: next, gain: gains[op-2]}
				next++
				h.push(it)
				model.push(it)
			} else if h.len() > 0 {
				if got, want := h.pop(), model.pop(); got != want {
					t.Fatalf("step %d: popped %+v, the swap heap %+v", step, got, want)
				}
			}
			if !slices.Equal(h.a, model.a) {
				t.Fatalf("step %d (byte %#x): heap array %v, the swap heap's %v", step, b, h.a, model.a)
			}
		}
	})
}

// TestGrowPartitionRejectsGainOverflow: a frontier gain is kept in 32
// bits, so a vertex whose weighted degree does not fit is an error, not a
// truncated gain.
func TestGrowPartitionRejectsGainOverflow(t *testing.T) {
	const half = math.MaxInt32/2 + 1
	// A path 1 - 0 - 2; vertex 0's two edges together weigh MaxInt32 + 1.
	w := &wgraph{
		xadj:   []int32{0, 2, 3, 4},
		adjncy: []int32{1, 2, 0, 0},
		adjwgt: []int32{half, half, half, half},
	}
	if _, err := growPartition(w, 2); err == nil {
		t.Fatal("weighted degree above MaxInt32 accepted")
	}
	w.adjwgt = []int32{half - 1, half, half - 1, half}
	if _, err := growPartition(w, 2); err != nil {
		t.Fatalf("weighted degree of exactly MaxInt32: %v", err)
	}
}
