package graph

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/stats"
)

func encode(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readBudget bounds what Read may allocate for an input of n bytes: the
// up-front tables (maxPrealloc entries each, under 4 MiB together), plus
// storage that grows with what was actually decoded — every 4 input bytes
// yield at most one 24-byte list header in each of two tables, times the
// up to 5x that append's 1.25x growth allocates in total.
func readBudget(n int) uint64 { return 8<<20 + 128*uint64(n) }

// TestReadDoesNotTrustHeader feeds Read a bare header that claims the
// largest node count the format admits. It used to allocate the node
// table (48 GiB) before decoding the first node.
func TestReadDoesNotTrustHeader(t *testing.T) {
	for _, weighted := range []uint32{0, flagWeighted} {
		hdr := binary.LittleEndian.AppendUint32(nil, magic)
		hdr = binary.LittleEndian.AppendUint32(hdr, formatVersion)
		hdr = binary.LittleEndian.AppendUint64(hdr, 1<<31-1)
		hdr = binary.LittleEndian.AppendUint32(hdr, weighted)
		// One node follows, claiming 2^31-1 edges of which one arrives.
		body := binary.LittleEndian.AppendUint32(bytes.Clone(hdr), 1<<31-1)
		body = binary.LittleEndian.AppendUint32(body, 0)
		for _, in := range [][]byte{hdr, body} {
			var err error
			got := allocatedBy(func() { _, err = Read(bytes.NewReader(in)) })
			if err == nil {
				t.Fatal("truncated input accepted")
			}
			if got > readBudget(len(in)) {
				t.Fatalf("Read allocated %d bytes for a %d-byte input", got, len(in))
			}
		}
	}
}

// FuzzRead checks that whatever Read accepts survives a Write/Read round
// trip unchanged, and that whatever it rejects is rejected with an error,
// not a panic, within an allocation budget proportional to the input.
func FuzzRead(f *testing.F) {
	rng := stats.NewRNG(5)
	f.Add(encode(f, testGraph()))
	f.Add(encode(f, messyGraph(rng, 12, false)))
	f.Add(encode(f, messyGraph(rng, 12, true)))
	f.Add(encode(f, testGraph())[:25]) // header, one degree, one byte of an edge
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			g   *Graph
			err error
		)
		if got := allocatedBy(func() { g, err = Read(bytes.NewReader(data)) }); got > readBudget(len(data)) {
			t.Fatalf("Read allocated %d bytes for a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		again, err := Read(bytes.NewReader(encode(t, g)))
		if err != nil {
			t.Fatalf("re-reading an accepted graph: %v", err)
		}
		if hashGraph(again) != hashGraph(g) {
			t.Fatal("round trip changed the graph")
		}
	})
}
