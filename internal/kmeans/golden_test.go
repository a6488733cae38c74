package kmeans

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
// and an FNV-64a hash over the final centroids.
func TestLegacyModesGoldens(t *testing.T) {
	pts := smallCensus(t)
	for _, tc := range []struct {
		name         string
		eager        bool
		global       int
		local        int64
		durBits      uint64
		centroidHash uint64
		shuffleRecs  int64
		osc          bool
	}{
		{"general/default", false, 8, 0, 0x405bc14525cd159e, 0x660e135b06cb1a8b, 1658, false},
		{"eager/default", true, 11, 331, 0x40631a72583731ae, 0xfaecf5e532db9906, 2276, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(engine(), pts, 13, DefaultConfig(0.01), tc.eager)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			dur := math.Float64bits(float64(s.Duration))
			h := fnv.New64a()
			var b [8]byte
			for _, cen := range res.Centroids {
				for _, v := range cen {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			hash := h.Sum64()
			if s.GlobalIterations != tc.global || s.LocalIterations != tc.local ||
				dur != tc.durBits || hash != tc.centroidHash || s.ShuffleRecords != tc.shuffleRecs ||
				res.OscillationStop != tc.osc {
				t.Fatalf("got {%d, %d, %#x, %#x, %d, %v}, want {%d, %d, %#x, %#x, %d, %v}",
					s.GlobalIterations, s.LocalIterations, dur, hash, s.ShuffleRecords, res.OscillationStop,
					tc.global, tc.local, tc.durBits, tc.centroidHash, tc.shuffleRecs, tc.osc)
			}
		})
	}
}
