package partition

// gainItem is a frontier candidate in greedy graph growing: vertex v with
// its connectivity to the growing region at push time. Entries go stale
// when connectivity changes; consumers re-check against the live conn
// array and discard stale pops (lazy deletion). Eight bytes an entry: a
// region's frontier holds tens of thousands of them.
type gainItem struct {
	v    int32
	gain int32
}

// gainHeap is a max-heap of gainItems. A hand-rolled heap avoids
// container/heap's interface boxing on the partitioner's hot path.
//
// Equal gains pop in an order Assignment.Parts depends on. What fixes
// that order is which entries are compared, how each comparison falls
// (push stops at a parent that is not smaller; pop prefers the left child
// unless the right is strictly larger) and where every entry ends up; both
// sifts move a hole instead of swapping, which changes none of the three.
type gainHeap struct {
	a []gainItem
}

func (h *gainHeap) len() int { return len(h.a) }

func (h *gainHeap) reset() { h.a = h.a[:0] }

func (h *gainHeap) push(it gainItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].gain >= it.gain {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = it
}

func (h *gainHeap) pop() gainItem {
	top := h.a[0]
	last := len(h.a) - 1
	it := h.a[last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big, gain := i, it.gain
		if l < last && h.a[l].gain > gain {
			big, gain = l, h.a[l].gain
		}
		if r < last && h.a[r].gain > gain {
			big = r
		}
		if big == i {
			break
		}
		h.a[i] = h.a[big]
		i = big
	}
	h.a[i] = it
	h.a = h.a[:last]
	return top
}
