package mapreduce

import (
	"fmt"
	"slices"
	"testing"
)

// A grouper replays its last grouping when the next records carry the
// same key sequence and rebuilds it otherwise; its user must not be able
// to tell which happened. The differential test feeds one grouper a chain
// of record sequences — each derived from the one before: the same keys
// with new values, one key changed, a record more, a record fewer, two
// records swapped — and compares every grouping with a naive model, a
// map[K][]V plus the keys in first-seen order.

// modelGroups lists records' groups as "key [values]" in first-seen key
// order.
func modelGroups(records []KV[int, int]) []string {
	var keys []int
	groups := map[int][]int{}
	for _, kv := range records {
		if _, seen := groups[kv.Key]; !seen {
			keys = append(keys, kv.Key)
		}
		groups[kv.Key] = append(groups[kv.Key], kv.Value)
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprint(k, groups[k])
	}
	return out
}

// grouperGroups lists g's grouping of records the same way.
func grouperGroups(g *grouper[int, int], records []KV[int, int]) []string {
	g.group(records)
	out := make([]string, len(g.keys))
	for i, k := range g.keys {
		out[i] = fmt.Sprint(k, g.values(i))
	}
	return out
}

const grouperKeys = 16

// checkGrouperChain decodes data as a first record sequence and a chain
// of edits to it, grouping after every edit. A short input decodes as if
// padded with zeros.
func checkGrouperChain(t *testing.T, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	records := make([]KV[int, int], next()%40)
	for i := range records {
		records[i] = KV[int, int]{Key: next() % grouperKeys, Value: next()}
	}
	var g grouper[int, int]
	for step, steps := 0, 1+next()%12; step < steps; step++ {
		if got, want := grouperGroups(&g, records), modelGroups(records); !slices.Equal(got, want) {
			t.Fatalf("step %d, records %v:\n got %v\nwant %v", step, records, got, want)
		}
		// The next sequence is a new slice with new values: nothing the
		// grouper remembered may depend on the old one's memory.
		records = slices.Clone(records)
		for i := range records {
			records[i].Value += 1 + step
		}
		edit, at := next()%6, next()
		switch {
		case edit == 0: // the same keys
		case edit == 1 || len(records) == 0: // longer
			at %= len(records) + 1
			records = slices.Insert(records, at, KV[int, int]{Key: next() % grouperKeys, Value: next()})
		case edit == 2: // shorter
			at %= len(records)
			records = slices.Delete(records, at, at+1)
		case edit == 3: // permuted
			i, j := at%len(records), next()%len(records)
			records[i], records[j] = records[j], records[i]
		case edit == 4: // one key changed
			at %= len(records)
			records[at].Key = (records[at].Key + 1 + next()%(grouperKeys-1)) % grouperKeys
		case edit == 5: // unrelated
			records = make([]KV[int, int], next()%40)
			for i := range records {
				records[i] = KV[int, int]{Key: next() % grouperKeys, Value: next()}
			}
		}
	}
}

func FuzzGrouperMatchesModel(f *testing.F) {
	f.Add([]byte{})
	// Five records, then: same, longer, same, shorter, same, permuted,
	// same, one key changed (first, last), same.
	f.Add([]byte{5, 1, 10, 2, 20, 1, 30, 3, 40, 2, 50, 11,
		0, 0, 1, 5, 7, 70, 0, 0, 2, 0, 0, 0, 3, 1, 3, 0, 0, 4, 0, 2, 4, 4, 9, 0, 0})
	f.Fuzz(checkGrouperChain)
}

func TestGrouperMatchesModel(t *testing.T) {
	// Deterministic chains beside the fuzz corpus: every byte string is
	// one, so walk a simple generator.
	x := uint32(15)
	for i := 0; i < 300; i++ {
		data := make([]byte, 8+i)
		for j := range data {
			x = x*1664525 + 1013904223
			data[j] = byte(x >> 24)
		}
		checkGrouperChain(t, data)
	}
}

// A replayed grouping must leave keys and offs alone and must not have
// hashed anything; a rebuilt one must come out allocation-free too once
// the grouper has seen the larger of the two shapes.
func TestGrouperReplaysAndRebuildsAllocFree(t *testing.T) {
	a := []KV[string, int]{{"b", 1}, {"a", 2}, {"b", 3}, {"c", 4}, {"a", 5}}
	b := []KV[string, int]{{"c", 1}, {"c", 2}, {"a", 3}}
	var g grouper[string, int]
	g.group(a)
	keys, offs := slices.Clone(g.keys), slices.Clone(g.offs)
	clear(g.idx) // a replay does not consult the index
	a2 := slices.Clone(a)
	for i := range a2 {
		a2[i].Value *= 10
	}
	g.group(a2)
	if !slices.Equal(g.keys, keys) || !slices.Equal(g.offs, offs) || len(g.idx) != 0 {
		t.Fatalf("the same key sequence was regrouped: keys %v offs %v idx %v", g.keys, g.offs, g.idx)
	}
	if got := g.values(0); !slices.Equal(got, []int{10, 30}) {
		t.Fatalf("replayed group b = %v", got)
	}
	g.group(b)
	if allocs := testing.AllocsPerRun(100, func() { g.group(a); g.group(b) }); allocs != 0 {
		t.Fatalf("alternating two shapes allocates %v times per pair, want 0", allocs)
	}
}
