package sssp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestLegacyModesGoldens pins the general and eager formulations bit for
// bit against goldens recorded before core.LocalContext became
// slot-addressed and the engine's shuffle buffers pooled: iteration
// counts, shuffled records, the simulated duration's float64 bit pattern
// and an FNV-64a hash over the final distances.
func TestLegacyModesGoldens(t *testing.T) {
	subs := subgraphs(t, smallGraph(), 8)
	for _, tc := range []struct {
		name        string
		eager       bool
		global      int
		local       int64
		durBits     uint64
		distHash    uint64
		shuffleRecs int64
	}{
		{"general/default", false, 17, 0, 0x406d52aeffe98522, 0xfb504b142e8e58f4, 57889},
		{"eager/default", true, 8, 226, 0x405ba55888071791, 0xfb504b142e8e58f4, 31805},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(engine(), subs, Config{}, tc.eager)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			dur := math.Float64bits(float64(s.Duration))
			h := fnv.New64a()
			var b [8]byte
			for _, v := range res.Dist {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			hash := h.Sum64()
			if s.GlobalIterations != tc.global || s.LocalIterations != tc.local ||
				dur != tc.durBits || hash != tc.distHash || s.ShuffleRecords != tc.shuffleRecs {
				t.Fatalf("got {%d, %d, %#x, %#x, %d}, want {%d, %d, %#x, %#x, %d}",
					s.GlobalIterations, s.LocalIterations, dur, hash, s.ShuffleRecords,
					tc.global, tc.local, tc.durBits, tc.distHash, tc.shuffleRecs)
			}
		})
	}
}
