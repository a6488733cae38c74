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
// that order is how ties fall (push stops at a parent that is not smaller;
// pop prefers the left child unless the right is strictly larger, and
// stops above a child that is not larger) and where every entry ends up;
// FuzzGainHeapMatchesSwapHeap holds both sifts to the textbook ones.
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

// pop sifts bottom-up: the hole left by the top descends the larger-child
// path (left on a tie) all the way to a leaf, one comparison a level, and
// the last entry then climbs from there past every entry that is not
// larger than it. Gains do not increase down a path, so the climb stops
// where a top-down sift — two comparisons a level — would have stopped
// the descent, with the same entries moved up: the same array.
func (h *gainHeap) pop() gainItem {
	top := h.a[0]
	last := len(h.a) - 1
	it := h.a[last]
	i := 0
	for l := 1; l < last; l = 2*i + 1 {
		if r := l + 1; r < last && h.a[r].gain > h.a[l].gain {
			l = r
		}
		h.a[i] = h.a[l]
		i = l
	}
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].gain > it.gain {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = it
	h.a = h.a[:last]
	return top
}
