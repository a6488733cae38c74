package async

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/simtime"
)

// awaitVersion spins until partition p has published version v and
// returns exactly that version (not a newer one): the store has no
// blocking read, so tests that race readers against publishers poll.
func awaitVersion[D any](s *Store[D], p, v int) (snap Snapshot[D]) {
	for s.Latest(p) < v {
		runtime.Gosched()
	}
	s.fill(&snap, p, v)
	return snap
}

// readAt and readLatest are the tests' cursor-less reads, spelled with
// what the schedulers call: the newest version visible at a time
// (ReadAtFrom, searching from the newest version) and the newest version
// regardless of time (Latest + fill).
func readAt[D any](s *Store[D], p int, at simtime.Duration) (Snapshot[D], bool) {
	snap, _, ok := s.ReadAtFrom(p, at, s.Latest(p))
	return snap, ok
}

func readLatest[D any](s *Store[D], p int) (snap Snapshot[D], ok bool) {
	v := s.Latest(p)
	if v < 0 {
		return snap, false
	}
	s.fill(&snap, p, v)
	return snap, true
}

func TestStorePublishRead(t *testing.T) {
	s := NewStore[int](2)
	if len(s.shards) != 2 {
		t.Fatalf("NumParts = %d", len(s.shards))
	}
	if _, ok := readLatest(s, 0); ok {
		t.Fatal("empty partition readable")
	}
	if s.Latest(0) != -1 {
		t.Fatal("empty partition has a latest version")
	}
	mustPublish := func(p, v int, at simtime.Duration, d int) {
		t.Helper()
		if err := s.Publish(p, v, at, d); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(0, 0, 0, 100)
	mustPublish(0, 1, 5*simtime.Second, 101)
	mustPublish(0, 2, 9*simtime.Second, 102)

	snap, ok := readLatest(s, 0)
	if !ok || snap.Version != 2 || snap.Data != 102 {
		t.Fatalf("Read = %+v, %v", snap, ok)
	}
	// Time-based visibility picks the newest version at or before t.
	cases := []struct {
		at      simtime.Duration
		version int
	}{
		{0, 0}, {4 * simtime.Second, 0}, {5 * simtime.Second, 1},
		{8 * simtime.Second, 1}, {100 * simtime.Second, 2},
	}
	for _, c := range cases {
		snap, ok := readAt(s, 0, c.at)
		if !ok || snap.Version != c.version {
			t.Fatalf("ReadAt(%v) = v%d, want v%d", c.at, snap.Version, c.version)
		}
	}
}

func TestStoreRejectsBadPublishes(t *testing.T) {
	s := NewStore[int](1)
	if err := s.Publish(0, 1, 0, 0); err == nil {
		t.Fatal("version gap accepted")
	}
	if err := s.Publish(0, 0, 5*simtime.Second, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(0, 0, 6*simtime.Second, 0); err == nil {
		t.Fatal("duplicate version accepted")
	}
	if err := s.Publish(0, 1, 1*simtime.Second, 0); err == nil {
		t.Fatal("time regression accepted")
	}
	if err := s.Publish(2, 0, 0, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

// TestStoreCursorAgreement: ReadAtFrom must agree with the binary-search
// ReadAt for every hint, including overshooting and out-of-range ones —
// the cursor is a performance input, never a correctness one.
func TestStoreCursorAgreement(t *testing.T) {
	s := NewStore[int](1)
	// Irregular spacing, including consecutive equal publication times.
	ats := []simtime.Duration{0, 1, 1, 3, 7, 7, 7, 20, 21, 50}
	for v, at := range ats {
		if err := s.Publish(0, v, at*simtime.Second, v); err != nil {
			t.Fatal(err)
		}
	}
	for at := simtime.Duration(-1); at <= 55; at++ {
		want, wantOK := readAt(s, 0, at*simtime.Second)
		for hint := -2; hint <= len(ats)+1; hint++ {
			got, idx, ok := s.ReadAtFrom(0, at*simtime.Second, hint)
			if ok != wantOK {
				t.Fatalf("at=%v hint=%d: ok=%v, ReadAt ok=%v", at, hint, ok, wantOK)
			}
			if !ok {
				continue
			}
			if got.Version != want.Version || got.At != want.At || got.Data != want.Data {
				t.Fatalf("at=%v hint=%d: got v%d, ReadAt v%d", at, hint, got.Version, want.Version)
			}
			if idx != got.Version {
				t.Fatalf("at=%v hint=%d: returned cursor %d for v%d", at, hint, idx, got.Version)
			}
		}
	}
}

// TestStoreShardedProperty is the property test for the sharded store:
// per-partition publishers race against three reader populations —
// monotone cursor readers (the engine's access pattern), random-hint
// readers checking cursor/binary-search agreement, and readers polling
// for a given version — while the test asserts visibility monotonicity (a reader
// moving forward in time never sees Version or At go backwards) and
// payload consistency. Run with -race (the CI workflow does).
func TestStoreShardedProperty(t *testing.T) {
	const (
		parts    = 6
		versions = 300
	)
	s := NewStore[int](parts)
	var wg sync.WaitGroup

	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for v := 0; v < versions; v++ {
				// Distinct per-partition spacing; occasional equal times.
				at := simtime.Duration(v-v%3) * simtime.Duration(p+1) * simtime.Millisecond
				if err := s.Publish(p, v, at, p*10000+v); err != nil {
					t.Errorf("publish p%d v%d: %v", p, v, err)
					return
				}
			}
		}(p)
	}

	// Monotone cursor readers: advance a per-partition clock and cursor
	// exactly like an engine worker; visibility must be monotone and the
	// cursor result must match the searching read.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cursors := make([]int, parts)
			lastV := make([]int, parts)
			lastAt := make([]simtime.Duration, parts)
			for i := range lastV {
				lastV[i] = -1
			}
			for at := simtime.Duration(0); at < versions; at += simtime.Duration(r + 1) {
				for p := 0; p < parts; p++ {
					vt := at * simtime.Duration(p+1) * simtime.Millisecond
					snap, idx, ok := s.ReadAtFrom(p, vt, cursors[p])
					if !ok {
						continue // p's version 0 not published yet
					}
					cursors[p] = idx
					if snap.Version < lastV[p] || snap.At < lastAt[p] {
						t.Errorf("visibility regressed on p%d: v%d@%v after v%d@%v",
							p, snap.Version, snap.At, lastV[p], lastAt[p])
					}
					lastV[p], lastAt[p] = snap.Version, snap.At
					if snap.Data != p*10000+snap.Version {
						t.Errorf("torn read p%d: v%d data %d", p, snap.Version, snap.Data)
					}
					// Publishers run between the two reads, and growth only
					// moves visibility forward; the strict equality is
					// TestStoreCursorAgreement's, on a quiet store.
					chk, ok2 := readAt(s, p, vt)
					if !ok2 || chk.Version < snap.Version {
						t.Errorf("searching read went backwards on p%d at %v: v%d after cursor read v%d (ok=%v)",
							p, vt, chk.Version, snap.Version, ok2)
					}
					if ok2 && chk.Data != p*10000+chk.Version {
						t.Errorf("torn read p%d: v%d data %d", p, chk.Version, chk.Data)
					}
				}
			}
		}(r)
	}

	// Random-hint readers: any hint must reproduce the searching read.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rnd := uint32(seed*2654435761 + 1)
			for i := 0; i < 4000; i++ {
				rnd = rnd*1664525 + 1013904223
				p := int(rnd>>8) % parts
				vt := simtime.Duration(int(rnd>>16)%versions) * simtime.Millisecond * simtime.Duration(p+1)
				hint := int(rnd>>4)%(versions+2) - 1
				want, wantOK := readAt(s, p, vt)
				got, _, ok := s.ReadAtFrom(p, vt, hint)
				// The store may have grown between the two reads; only a
				// same-version comparison is meaningful, and growth only
				// moves visibility forward.
				if wantOK && !ok {
					t.Errorf("p%d at %v: hinted read lost a visible version", p, vt)
				}
				if wantOK && ok && got.Version < want.Version {
					t.Errorf("p%d at %v hint %d: hinted read went backwards: v%d < v%d",
						p, vt, hint, got.Version, want.Version)
				}
			}
		}(r)
	}

	// Version waiters: a version, once published, reads back as exactly
	// the requested one.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for p := 0; p < parts; p++ {
				for _, v := range []int{0, versions / 2, versions - 1} {
					snap := awaitVersion(s, p, v)
					if snap.Version != v || snap.Data != p*10000+v {
						t.Errorf("awaitVersion(p%d, v%d) = v%d data %d", p, v, snap.Version, snap.Data)
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestStoreSealWakesWaiters pins what sealing does now that the store has
// no blocking read (and so no waiters to wake; the name is kept for the
// test's history): the seal is per partition, history published before
// it stays readable, a version that was never published stays absent,
// later publishes are rejected, and sealing twice is harmless.
func TestStoreSealWakesWaiters(t *testing.T) {
	s := NewStore[int](2)
	if err := s.Publish(0, 0, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(1, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s.Seal(0)
	if snap, ok := readLatest(s, 0); !ok || snap.Data != 7 {
		t.Fatalf("sealed partition unreadable: %+v ok=%v", snap, ok)
	}
	if _, ok := s.At(0, 1); ok {
		t.Fatal("sealed partition claimed a version that was never published")
	}
	if err := s.Publish(0, 1, simtime.Second, 8); err == nil {
		t.Fatal("publish to sealed partition accepted")
	}
	if err := s.Publish(1, 1, simtime.Second, 2); err != nil {
		t.Fatalf("sealing partition 0 closed partition 1: %v", err)
	}
	s.Seal(0)
}

// TestStoreConcurrentAccess is the race-detector workout for the shared
// store: writers append monotone version chains per partition while
// readers mix latest reads, time-bounded reads, and polls for the final
// version. Run with -race (the CI workflow does).
func TestStoreConcurrentAccess(t *testing.T) {
	const (
		parts    = 8
		versions = 200
		readers  = 4
	)
	s := NewStore[int](parts)
	var wg sync.WaitGroup

	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for v := 0; v < versions; v++ {
				at := simtime.Duration(v) * simtime.Millisecond
				if err := s.Publish(p, v, at, p*1000+v); err != nil {
					t.Errorf("publish p%d v%d: %v", p, v, err)
					return
				}
			}
		}(p)
	}

	// Waiting readers: poll for the final version of every partition.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for p := 0; p < parts; p++ {
				if snap := awaitVersion(s, p, versions-1); snap.Data != p*1000+versions-1 {
					t.Errorf("awaitVersion(p%d) data %d", p, snap.Data)
				}
			}
		}(r)
	}

	// Polling readers: versions must be consistent with their payloads
	// and monotone per partition.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]int, parts)
			for i := range last {
				last[i] = -1
			}
			for i := 0; i < 2000; i++ {
				p := i % parts
				if snap, ok := readLatest(s, p); ok {
					if snap.Data != p*1000+snap.Version {
						t.Errorf("torn read: p%d v%d data %d", p, snap.Version, snap.Data)
					}
					if snap.Version < last[p] {
						t.Errorf("version went backwards on p%d: %d -> %d", p, last[p], snap.Version)
					}
					last[p] = snap.Version
				}
				if snap, ok := readAt(s, p, 50*simtime.Millisecond); ok && snap.Version > 50 {
					t.Errorf("ReadAt returned future version %d", snap.Version)
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoreSegmentLayout pins the version -> (segment, offset) map: the
// segments tile the versions densely and in order, the first holds 32,
// each later one doubles the capacity, and from the cap on they are all
// the cap's size.
func TestStoreSegmentLayout(t *testing.T) {
	for seg, want := range []int{32, 32, 64, 128, 256, 512, 1024, 1024, 1024} {
		if segSize(seg) != want {
			t.Fatalf("segment %d holds %d versions, want %d", seg, segSize(seg), want)
		}
	}
	seg, off := 0, 0
	for v := 0; v < 5<<capSegBits; v++ {
		if gotSeg, gotOff := locate(v); gotSeg != seg || gotOff != off {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", v, gotSeg, gotOff, seg, off)
		}
		if off++; off == segSize(seg) {
			seg, off = seg+1, 0
		}
	}
}

// TestStoreReadersAcrossSegments is the race-detector workout for the
// segmented history: one publisher drives a shard across every segment
// boundary up to the first few cap-sized ones while readers, with no lock
// and no waiting, check that every version below the length they loaded
// is readable, has the payload and publication time it was published
// with however often it is read again (immutable), and that publication
// times never decrease along the history. Run with -race (the CI
// workflow does).
func TestStoreReadersAcrossSegments(t *testing.T) {
	const (
		versions = 3<<capSegBits + 40
		readers  = 4
	)
	atOf := func(v int) simtime.Duration { return simtime.Duration(v/2) * simtime.Millisecond } // equal pairs
	s := NewStore[int](1)
	var wg sync.WaitGroup
	stopped := make(chan struct{}) // closed when the publisher returns
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stopped)
		for v := 0; v < versions; v++ {
			if err := s.Publish(0, v, atOf(v), v*3+1); err != nil {
				t.Errorf("publish v%d: %v", v, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			check := func(v int) {
				at, ok := s.At(0, v)
				if !ok || at != atOf(v) {
					t.Errorf("At(v%d) = %v, %v; published at %v", v, at, ok, atOf(v))
				}
				if v > 0 {
					if prev, _ := s.At(0, v-1); prev > at {
						t.Errorf("publication time decreases: v%d at %v after v%d at %v", v, at, v-1, prev)
					}
				}
				snap := awaitVersion(s, 0, v)
				if snap.Part != 0 || snap.Version != v || snap.At != atOf(v) || snap.Data != v*3+1 {
					t.Errorf("version %d reads back as %+v", v, snap)
				}
				if got, ok := s.VisibleFrom(0, atOf(v), v-r); !ok || got < v || atOf(got) != atOf(v) {
					t.Errorf("VisibleFrom(at of v%d, hint %d) = v%d, %v", v, v-r, got, ok)
				}
			}
			seen := 0
			for seen < versions && !t.Failed() {
				n := s.Latest(0) + 1
				if n == seen {
					select {
					case <-stopped:
						if s.Latest(0)+1 == seen {
							t.Errorf("publisher stopped at %d of %d versions", seen, versions)
							return
						}
					default:
					}
					runtime.Gosched()
					continue
				}
				for v := seen; v < n; v++ {
					check(v)
				}
				// Read old versions again, a different stretch each round:
				// what was published stays what it was.
				for v := (seen * 7) % n; v < n && v < (seen*7)%n+48; v++ {
					check(v)
				}
				seen = n
			}
		}(r)
	}
	wg.Wait()
	// Versions 2k and 2k+1 share a publication time; the odd one is newer.
	for v := 0; v < versions && !t.Failed(); v++ {
		if snap, ok := readAt(s, 0, atOf(v)); !ok || snap.Version != v|1 {
			t.Fatalf("ReadAt(at of v%d) = v%d, %v; want v%d", v, snap.Version, ok, v|1)
		}
	}
}

// storeModel is the naive store FuzzStoreMatchesModel compares against:
// one slice, linear scans.
type storeModel struct {
	hist   []Snapshot[int]
	sealed bool
}

func (m *storeModel) visible(at simtime.Duration) int {
	v := -1
	for i, snap := range m.hist {
		if snap.At <= at {
			v = i
		}
	}
	return v
}

// FuzzStoreMatchesModel runs a byte script of store operations against
// one shard and the naive model, checking every result. Each operation
// is one opcode byte (mod 8) and its operand bytes; a script that runs
// out of operands ends.
//
//	0 dt          publish one version dt after the last (dt 0: equal times)
//	1 count dt    publish count+1 versions, each dt after the one before
//	2 t t         ReadAt
//	3 t t h h     ReadAtFrom and VisibleFrom with an arbitrary hint
//	4             Latest and Read
//	5 v v         At, of a version that may not exist
//	6 v v         At, of an existing version
//	7             Seal; later publishes must be rejected
func FuzzStoreMatchesModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 4, 2, 0, 3, 3, 0, 9, 0, 1}) // equal times, short
	f.Add([]byte{1, 140, 1, 3, 0, 40, 0, 31, 3, 0, 70, 0, 200, 6, 0, 64, 5, 0, 128})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewStore[int](1)
		var m storeModel
		var last simtime.Duration
		next := func() (int, bool) {
			if len(script) == 0 {
				return 0, false
			}
			b := script[0]
			script = script[1:]
			return int(b), true
		}
		next2 := func() (int, bool) {
			hi, _ := next()
			lo, ok := next()
			return hi<<8 | lo, ok
		}
		// Query times cover a little before the first publication to a
		// little after the last.
		timeOf := func(x int) simtime.Duration {
			return simtime.Duration(x%(int(last/simtime.Millisecond)+4)-1) * simtime.Millisecond
		}
		publish := func(dt int) {
			at := last + simtime.Duration(dt)*simtime.Millisecond
			v := len(m.hist)
			err := s.Publish(0, v, at, v*7+3)
			if m.sealed {
				if err == nil {
					t.Fatalf("publish v%d to a sealed shard accepted", v)
				}
				return
			}
			if err != nil {
				t.Fatalf("publish v%d at %v: %v", v, at, err)
			}
			m.hist = append(m.hist, Snapshot[int]{Part: 0, Version: v, At: at, Data: v*7 + 3})
			last = at
			if s.Publish(0, v, at, 0) == nil || s.Publish(0, v+2, at, 0) == nil {
				t.Fatalf("publish out of order accepted after v%d", v)
			}
			if dt > 0 && s.Publish(0, v+1, at-1, 0) == nil {
				t.Fatalf("publish before v%d's time accepted", v)
			}
		}
		same := func(what string, got Snapshot[int], ok bool, want int) {
			t.Helper()
			if ok != (want >= 0) || ok && got != m.hist[want] {
				t.Fatalf("%s = %+v, %v; model has v%d of %d", what, got, ok, want, len(m.hist))
			}
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 8 {
			case 0:
				if dt, ok := next(); ok {
					publish(dt)
				}
			case 1:
				count, _ := next()
				if dt, ok := next(); ok {
					for i := 0; i <= count; i++ {
						publish(dt)
					}
				}
			case 2:
				if x, ok := next2(); ok {
					snap, ok := readAt(s, 0, timeOf(x))
					same("ReadAt", snap, ok, m.visible(timeOf(x)))
				}
			case 3:
				x, _ := next2()
				if h, ok := next2(); ok {
					at, hint, want := timeOf(x), h-16, m.visible(timeOf(x))
					snap, idx, ok := s.ReadAtFrom(0, at, hint)
					same("ReadAtFrom", snap, ok, want)
					v, vok := s.VisibleFrom(0, at, hint)
					if vok != ok || vok && (v != want || idx != want) {
						t.Fatalf("VisibleFrom(%v, hint %d) = v%d, %v; ReadAtFrom index %d; model has v%d", at, hint, v, vok, idx, want)
					}
				}
			case 4:
				if got := s.Latest(0); got != len(m.hist)-1 {
					t.Fatalf("Latest = %d, model has %d versions", got, len(m.hist))
				}
				snap, ok := readLatest(s, 0)
				same("Read", snap, ok, len(m.hist)-1)
			case 5:
				if x, ok := next2(); ok {
					v := x - 8
					at, ok := s.At(0, v)
					if exists := v >= 0 && v < len(m.hist); ok != exists || ok && at != m.hist[v].At {
						t.Fatalf("At(v%d) = %v, %v; model has %d versions", v, at, ok, len(m.hist))
					}
				}
			case 6:
				if x, ok := next2(); ok && len(m.hist) > 0 {
					v := x % len(m.hist)
					if at, ok := s.At(0, v); !ok || at != m.hist[v].At {
						t.Fatalf("At(v%d) = %v, %v; model published it at %v", v, at, ok, m.hist[v].At)
					}
				}
			case 7:
				s.Seal(0)
				m.sealed = true
				if _, ok := s.At(0, len(m.hist)); ok {
					t.Fatal("sealed shard claimed a version that does not exist")
				}
			}
		}
		for v, want := range m.hist {
			if at, ok := s.At(0, v); !ok || at != want.At {
				t.Fatalf("At(v%d) = %v, %v; published at %v", v, at, ok, want.At)
			}
			snap, ok := readAt(s, 0, want.At)
			same("ReadAt of a publication time", snap, ok, m.visible(want.At))
		}
	})
}
