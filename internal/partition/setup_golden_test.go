package partition

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/stats"
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

// TestSetupGoldens pins Assignment.Parts (all four methods), the finest
// wgraph, one coarsening level and an initial partition of a coarse graph
// to the sums recorded on the commit before the CSR-symmetrization /
// concurrent-candidates rewrite (PR 13).
//
// Under directGrowLimit no method draws from its RNG unless a part comes
// out empty, so the three seeds of a row share one sum; the seed-dependent
// code (coarsen's visiting order) and bestInitial on weighted vertices are
// reached only above the limit and have their own rows, as has the whole
// hierarchy (Graph A / 35 with the limit lowered to 1 000 vertices;
// recorded when TestMultilevelHierarchy was added, PR 19).
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
	w := mustWGraph(t, testGraph(t, 56))
	if got, want := hashInt32s(w.xadj, w.adjncy, w.adjwgt, w.vwgt), uint64(0x91edecf4b707c8ac); got != want {
		t.Errorf("wgraph: hash %#x, want %#x", got, want)
	}
	coarsened := map[uint64][2]uint64{ // seed -> {coarsen, bestInitial}
		3: {0x600c49a13588f6ba, 0xf03f6090cd7f383d},
		4: {0x67ca56cf90a9422a, 0x460bb29b9a726640},
	}
	for _, seed := range []uint64{3, 4} {
		rng := stats.NewRNG(seed)
		coarse, cmap := coarsen(w, rng)
		if coarse == nil {
			t.Fatalf("seed %d: coarsening stalled", seed)
		}
		got := hashInt32s(cmap, coarse.xadj, coarse.adjncy, coarse.adjwgt, coarse.vwgt)
		if want := coarsened[seed][0]; got != want {
			t.Errorf("coarsen seed %d: hash %#x, want %#x", seed, got, want)
		}
		initial, err := bestInitial(coarse, 8, Options{}.normalized(), rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := hashInt32s(initial), coarsened[seed][1]; got != want {
			t.Errorf("initial seed %d: hash %#x, want %#x", seed, got, want)
		}
	}

	for k, want := range map[int]uint64{8: 0xd62a9466e23c6967, 25: 0x55617da0f0aefb52} {
		a, err := multilevel(testGraph(t, 35), k, Options{Seed: 3}.normalized(), 1000)
		if err != nil {
			t.Fatalf("hierarchy k%d: %v", k, err)
		}
		if got := hashInt32s(a.Parts); got != want {
			t.Errorf("hierarchy k%d seed 3: hash %#x, want %#x", k, got, want)
		}
	}
}
