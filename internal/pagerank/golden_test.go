package pagerank

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// hashFloats is an FNV-64a hash over the vector's Float64bits.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestLegacyModesGoldens pins the general and eager formulations bit for
// bit against goldens recorded before the slot-addressed LocalContext,
// the static push plan and the pooled shuffle buffers replaced the
// map-based runtime: iteration counts, the simulated duration's float64
// bit pattern and an FNV-64a hash over the converged ranks. Any change
// to emission order, per-destination summation order or record pricing
// breaks a row.
func TestLegacyModesGoldens(t *testing.T) {
	subs := subgraphs(t, smallGraph(), 8)
	for _, tc := range []struct {
		name        string
		eager       bool
		global      int
		local       int64
		durBits     uint64
		rankHash    uint64
		shuffleRecs int64
	}{
		{"general/default", false, 51, 0, 0x408604c804e772f8, 0xe3107577cae72706, 227307},
		{"eager/default", true, 18, 1118, 0x406f0bb77bcb4511, 0x4cc38f14b31d0cd2, 80226},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(engine(), subs, DefaultConfig(), tc.eager)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			dur := math.Float64bits(float64(s.Duration))
			hash := hashFloats(res.Ranks)
			if s.GlobalIterations != tc.global || s.LocalIterations != tc.local ||
				dur != tc.durBits || hash != tc.rankHash || s.ShuffleRecords != tc.shuffleRecs {
				t.Fatalf("got {%d, %d, %#x, %#x, %d}, want {%d, %d, %#x, %#x, %d}",
					s.GlobalIterations, s.LocalIterations, dur, hash, s.ShuffleRecords,
					tc.global, tc.local, tc.durBits, tc.rankHash, tc.shuffleRecs)
			}
		})
	}
}
