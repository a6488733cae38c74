package async

// Tests for the rules every executor shares (part.go): the gate verdict,
// the canonical input read, and the sample a finished run ends on.

import (
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// scriptedStore publishes partition q's version v at pubs[q][v] seconds.
func scriptedStore(t testing.TB, pubs [][]simtime.Duration) *Store[int] {
	t.Helper()
	s := NewStore[int](len(pubs))
	for q, ats := range pubs {
		for v, at := range ats {
			if err := s.Publish(q, v, at*simtime.Second, 100*q+v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// readerParts is partition 0 reading nbrs, among n partitions, with
// version publications of its own behind it.
func readerParts(n, version int, nbrs ...int) []part {
	parts := make([]part, n)
	parts[0] = part{neighbors: nbrs, consumed: make([]int, len(nbrs)), cursors: make([]int, len(nbrs)), version: version}
	for j := range nbrs {
		parts[0].consumed[j] = -1
	}
	return parts
}

func TestGateVerdict(t *testing.T) {
	const now = 10 * simtime.Second
	fresh := []simtime.Duration{0, 3, 9}   // version 2 visible at 10 s
	future := []simtime.Duration{0, 5, 12} // version 2 published, visible at 12 s
	short := []simtime.Duration{0, 5}      // version 2 does not exist
	for _, c := range []struct {
		name    string
		pubs    [][]simtime.Duration // partition 0 is the reader
		nbrs    []int
		need    int
		settled map[int]int // partition → state; the rest runnable
		hints   []int       // initial cursors; nil = zeros
		nb      int         // < 0: the gate admits the step
		at      simtime.Duration
		exists  bool
		cursors []int // cursors afterwards; nil = not checked
	}{
		{name: "need zero", pubs: [][]simtime.Duration{{0}, short, short}, nbrs: []int{1, 2}, need: 0, nb: -1},
		{name: "need negative", pubs: [][]simtime.Duration{{0}, short, short}, nbrs: []int{1, 2}, need: -3, nb: -1},
		{name: "every neighbor fresh", pubs: [][]simtime.Duration{{0}, fresh, fresh}, nbrs: []int{1, 2}, need: 2, nb: -1, cursors: []int{2, 2}},
		{name: "published but future", pubs: [][]simtime.Duration{{0}, fresh, future}, nbrs: []int{1, 2}, need: 2, nb: 2, at: 12 * simtime.Second, exists: true},
		{name: "not published yet", pubs: [][]simtime.Duration{{0}, fresh, short}, nbrs: []int{1, 2}, need: 2, nb: 2},
		{name: "future but settled", pubs: [][]simtime.Duration{{0}, fresh, future}, nbrs: []int{1, 2}, need: 2, settled: map[int]int{2: idle}, nb: -1},
		{name: "missing but settled", pubs: [][]simtime.Duration{{0}, fresh, short}, nbrs: []int{1, 2}, need: 2, settled: map[int]int{2: forced}, nb: -1},
		{name: "missing, blocked itself", pubs: [][]simtime.Duration{{0}, fresh, short}, nbrs: []int{1, 2}, need: 2, settled: map[int]int{2: blocked}, nb: 2},
		{name: "first offender wins", pubs: [][]simtime.Duration{{0}, future, short}, nbrs: []int{1, 2}, need: 2, nb: 1, at: 12 * simtime.Second, exists: true},
		{name: "first offender wins, order swapped", pubs: [][]simtime.Duration{{0}, future, short}, nbrs: []int{2, 1}, need: 2, nb: 2},
		{name: "hint past t, passes", pubs: [][]simtime.Duration{{0}, future}, nbrs: []int{1}, need: 1, hints: []int{2}, nb: -1, cursors: []int{1}},
		{name: "hint past t, holds", pubs: [][]simtime.Duration{{0}, future}, nbrs: []int{1}, need: 2, hints: []int{2}, nb: 1, at: 12 * simtime.Second, exists: true, cursors: []int{1}},
		{name: "hint out of range", pubs: [][]simtime.Duration{{0}, fresh}, nbrs: []int{1}, need: 2, hints: []int{99}, nb: -1, cursors: []int{2}},
	} {
		store := scriptedStore(t, c.pubs)
		parts := readerParts(len(c.pubs), 0, c.nbrs...)
		copy(parts[0].cursors, c.hints)
		for q, state := range c.settled {
			parts[q].state = state
		}
		nb, at, exists := gate(store, parts, &parts[0], now, c.need)
		if nb != c.nb || nb >= 0 && (at != c.at || exists != c.exists) {
			t.Errorf("%s: gate = (neighbor %d, at %v, exists %v), want (%d, %v, %v)", c.name, nb, at, exists, c.nb, c.at, c.exists)
		}
		if c.cursors != nil && !slices.Equal(parts[0].cursors, c.cursors) {
			t.Errorf("%s: cursors left at %v, want %v", c.name, parts[0].cursors, c.cursors)
		}
	}
}

// gateModel is the gate with no cursor: a scan of each neighbor's whole
// history.
func gateModel(hist [][]simtime.Duration, settled []bool, nbrs []int, t simtime.Duration, need int) (nb int, at simtime.Duration, exists bool) {
	if need <= 0 {
		return -1, 0, false
	}
	for _, q := range nbrs {
		if settled[q] {
			continue
		}
		visible := -1
		for v, pubAt := range hist[q] {
			if pubAt <= t {
				visible = v
			}
		}
		if visible >= need {
			continue
		}
		if need < len(hist[q]) {
			return q, hist[q][need], true
		}
		return q, 0, false
	}
	return -1, 0, false
}

// FuzzGateMatchesModel runs a byte script of publications, clock moves and
// settle flips over four partitions that all read one another, evaluating
// gates as it goes and checking each verdict against the cursor-free
// model. Each operation is one opcode byte (mod 4) and two operand bytes;
// a script that runs out of operands ends.
//
//	0 q dt     partition q publishes its next version dt ms after its last
//	1 r need   reader r's gate at its clock, needing version need-1 (need mod 8)
//	2 r dt     reader r's clock advances dt ms
//	3 q t      q's state flips between runnable and idle (settled), and q's
//	           clock jumps to t ms — backwards too, which no engine reader
//	           does: cursors are hints, never inputs
func FuzzGateMatchesModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 5, 0, 1, 5, 2, 0, 7, 1, 0, 2, 1, 0, 3, 1, 0, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		const n = 4
		store := NewStore[int](n)
		parts := make([]part, n)
		hist := make([][]simtime.Duration, n)
		settled := make([]bool, n)
		clock := make([]simtime.Duration, n)
		for p := range parts {
			for d := 1; d < n; d++ {
				parts[p].neighbors = append(parts[p].neighbors, (p+d)%n) // a different order per reader
			}
			parts[p].cursors = make([]int, n-1)
			if err := store.Publish(p, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			hist[p] = []simtime.Duration{0}
		}
		for len(script) >= 3 {
			op, a, b := script[0]%4, int(script[1]), int(script[2])
			script = script[3:]
			p := a % n
			switch op {
			case 0:
				at := hist[p][len(hist[p])-1] + simtime.Duration(b)*simtime.Millisecond
				if err := store.Publish(p, len(hist[p]), at, 0); err != nil {
					t.Fatal(err)
				}
				hist[p] = append(hist[p], at)
			case 1:
				need := b%8 - 1
				nb, at, exists := gate(store, parts, &parts[p], clock[p], need)
				wantNb, wantAt, wantExists := gateModel(hist, settled, parts[p].neighbors, clock[p], need)
				if nb != wantNb || at != wantAt || exists != wantExists {
					t.Fatalf("reader %d at %v needing v%d: gate = (%d, %v, %v), model (%d, %v, %v); history %v settled %v cursors %v",
						p, clock[p], need, nb, at, exists, wantNb, wantAt, wantExists, hist, settled, parts[p].cursors)
				}
			case 2:
				clock[p] += simtime.Duration(b) * simtime.Millisecond
			case 3:
				settled[p] = !settled[p]
				parts[p].state = runnable
				if settled[p] {
					parts[p].state = idle
				}
				clock[p] = simtime.Duration(b-1) * simtime.Millisecond // -1 ms: before every version 0
			}
		}
	})
}

func TestReadInputsLeadAndConsumed(t *testing.T) {
	const now = 10 * simtime.Second
	store := scriptedStore(t, [][]simtime.Duration{
		{0},
		{0, 3, 9},       // version 2 visible
		{0, 5, 12},      // version 1 visible, version 2 not yet
		{0},             // version 0 only, and settled
		{20},            // nothing visible at 10 s
		{0, 1, 2, 3, 4}, // version 4 visible
	})
	parts := readerParts(6, 5, 1, 2, 3, 5)
	parts[3].state = forced
	pt := &parts[0]
	buf := make([]Snapshot[int], 4)
	lead, blind := readInputs(store, parts, pt, now, buf, pt.consumed)
	// Version 5 leads neighbor 1 by 3, neighbor 2 by 4, neighbor 5 by 1;
	// the lead of 5 over settled neighbor 3 does not count.
	if lead != 4 || blind != -1 {
		t.Fatalf("lead %d blind %d, want 4 and -1", lead, blind)
	}
	for j, want := range []int{2, 1, 0, 4} {
		q := pt.neighbors[j]
		if pt.consumed[j] != want || pt.cursors[j] != want {
			t.Fatalf("neighbor %d: consumed %d cursor %d, want both %d", q, pt.consumed[j], pt.cursors[j], want)
		}
		if got := buf[j]; got.Part != q || got.Version != want || got.Data != 100*q+want {
			t.Fatalf("neighbor %d: read %+v, want version %d", q, got, want)
		}
	}
	// Reading again later moves cursors and consumed versions together.
	if lead, blind = readInputs(store, parts, pt, 12*simtime.Second, buf, pt.consumed); lead != 3 || blind != -1 {
		t.Fatalf("second read: lead %d blind %d, want 3 and -1", lead, blind)
	}
	if pt.consumed[1] != 2 || pt.cursors[1] != 2 || buf[1].Version != 2 {
		t.Fatalf("second read of neighbor 2: consumed %d cursor %d read v%d, want 2", pt.consumed[1], pt.cursors[1], buf[1].Version)
	}
	// A lead never goes below zero, whoever is ahead.
	pt.version = 0
	if lead, _ = readInputs(store, parts, pt, now, buf, pt.consumed); lead != 0 {
		t.Fatalf("reader behind every neighbor has lead %d", lead)
	}
	// An early read — the parallel executor's dispatch — records what it
	// read in a vector of its own and leaves consumed alone.
	used := make([]int, 4)
	readInputs(store, parts, pt, 12*simtime.Second, buf, used)
	if !slices.Equal(used, []int{2, 2, 0, 4}) || !slices.Equal(pt.consumed, []int{2, 1, 0, 4}) {
		t.Fatalf("early read used %v, consumed %v; want [2 2 0 4] and [2 1 0 4] untouched", used, pt.consumed)
	}

	// A neighbor with nothing visible stops the read and is named; what
	// was read before it stays read.
	parts = readerParts(6, 0, 1, 4, 2)
	pt = &parts[0]
	if _, blind = readInputs(store, parts, pt, now, buf, pt.consumed); blind != 4 {
		t.Fatalf("blind neighbor %d, want 4", blind)
	}
	if pt.consumed[0] != 2 || pt.consumed[1] != -1 || pt.consumed[2] != -1 {
		t.Fatalf("consumed %v after a read stopped at its second neighbor", pt.consumed)
	}
}

// TestFinishDrainCheck: finish, which every executor ends with, fails a
// run with a partition still gate-blocked and reports one stopped with a
// partition still runnable or timed as not converged.
func TestFinishDrainCheck(t *testing.T) {
	for _, c := range []struct {
		state     int
		fails     bool
		converged bool
	}{{idle, false, true}, {runnable, false, false}, {timed, false, false}, {blocked, true, false}} {
		r, _, err := newRun(quietCluster(), maxProp([]int64{3, 9, 1}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for p := range r.parts {
			r.parts[p].state = idle
		}
		r.parts[1].state = c.state
		st, err := r.finish(0, metrics.Sample{})
		if (err != nil) != c.fails || err == nil && st.Converged != c.converged {
			t.Errorf("partition 1 in state %d at the end: stats %+v, error %v", c.state, st, err)
		}
	}
}

// TestFinalSampleInvariants holds the last sample of a converged run to
// what follows from there being one record for every executor: it closes
// the run's counters, and with every partition idle nothing published is
// unconsumed. At S = 0 a slow partition makes the others wait at the gate,
// so the gate-wait total is checked on a run that has one.
func TestFinalSampleInvariants(t *testing.T) {
	slow0 := func(p int) int64 {
		if p == 0 {
			return 4e6
		}
		return 1e4
	}
	for _, tc := range []struct {
		s int
		w func() *toy
	}{
		{1, func() *toy { return maxProp([]int64{3, 9, 1, 7, 2, 8, 4, 6}) }},
		{0, func() *toy { return counter(8, 20, slow0) }},
	} {
		for _, ex := range []Executor{DES, Parallel, Live} {
			w := tc.w()
			every := simtime.Second // virtual; under Live the grid is real time
			if ex == Live {
				every = simtime.Millisecond
			}
			ser := metrics.NewSeries(every, 0)
			stats, err := Run(liveCluster(), w, Options{Staleness: tc.s, Executor: ex, Workers: 2, Series: ser})
			if err != nil {
				t.Fatalf("S=%d %v: %v", tc.s, ex, err)
			}
			if !stats.Converged {
				t.Fatalf("S=%d %v: not converged", tc.s, ex)
			}
			if tc.s == 0 && stats.GateWaits == 0 {
				t.Fatalf("S=0 %v: lockstep behind a slow partition booked no gate waits", ex)
			}
			smp := ser.Samples()
			last := smp[len(smp)-1]
			if last.Tick != stats.SeriesSamples-1 || last.Time != stats.Duration {
				t.Fatalf("S=%d %v: last sample is tick %d at %v; the run recorded %d samples and ended at %v", tc.s, ex, last.Tick, last.Time, stats.SeriesSamples, stats.Duration)
			}
			if last.Steps != stats.Steps || last.Publishes != stats.Publishes || last.StoreVersions != stats.Publishes || last.GateWait != stats.GateWaitTime {
				t.Fatalf("S=%d %v: last sample has %d steps, %d publishes, %d store versions, %v gate wait; the run %d steps, %d publishes, %v gate wait",
					tc.s, ex, last.Steps, last.Publishes, last.StoreVersions, last.GateWait, stats.Steps, stats.Publishes, stats.GateWaitTime)
			}
			edges := int64(0)
			for p := 0; p < w.Parts(); p++ {
				edges += int64(len(w.Neighbors(p)))
			}
			if last.LagMax != 0 || last.LagHist[0] != edges {
				t.Fatalf("S=%d %v: converged run ends with input lag %d, histogram %v; want all %d inputs in bucket 0", tc.s, ex, last.LagMax, last.LagHist, edges)
			}
			for b := 1; b < metrics.LagBuckets; b++ {
				if last.LagHist[b] != 0 {
					t.Fatalf("S=%d %v: converged run ends with inputs in lag bucket %d: %v", tc.s, ex, b, last.LagHist)
				}
			}
		}
	}
}
