package partition

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// hashInt32s is FNV-64a over the lists, each preceded by its length.
func hashInt32s(lists ...[]int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:])
	}
	for _, l := range lists {
		put(uint32(len(l)))
		for _, x := range l {
			put(uint32(x))
		}
	}
	return h.Sum64()
}

// TestSetupGoldens pins Assignment.Parts (all four methods) and the
// wgraph to the sums recorded before the CSR-symmetrization /
// concurrent-candidates rewrite.
//
// No method draws from its RNG unless a part comes out empty, so the
// three seeds of a row share one sum.
func TestSetupGoldens(t *testing.T) {
	parts := map[string]uint64{
		"multilevel/k8":  0x42b3b0099cd17c24,
		"multilevel/k16": 0x150287dd761ffcb2,
		"bfs/k8":         0x658255fde04e2be7,
		"bfs/k16":        0x1097379f8154ed3d,
		"range/k8":       0x41be3a357859d7c5,
		"range/k16":      0xee88a099e8075885,
		"hash/k8":        0x350d54179b14cbc5,
		"hash/k16":       0xe8ffc0f139e291c5,
	}
	g := testGraph(t, 8)
	for _, m := range []Method{Multilevel, BFS, Range, Hash} {
		for _, k := range []int{8, 16} {
			name := fmt.Sprintf("%v/k%d", m, k)
			for seed := uint64(1); seed <= 3; seed++ {
				a, err := Partition(g, k, Options{Method: m, Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if got := hashInt32s(a.Parts); got != parts[name] {
					t.Errorf("%s seed %d: hash %#x, want %#x", name, seed, got, parts[name])
				}
			}
		}
	}

	// Graph A / 56 is under exactWeightLimit, so adjwgt carries 1s and 2s.
	// The sum was recorded with a vertex-weight list of all ones after
	// adjwgt, and still hashes one.
	w := mustWGraph(t, testGraph(t, 56))
	ones := make([]int32, w.n())
	for i := range ones {
		ones[i] = 1
	}
	if got, want := hashInt32s(w.xadj, w.adjncy, w.adjwgt, ones), uint64(0x91edecf4b707c8ac); got != want {
		t.Errorf("wgraph: hash %#x, want %#x", got, want)
	}
}
