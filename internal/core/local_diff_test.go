package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// The differential test drives BuildGMap's local runtime and a model of
// its semantics written out per iteration (a map[K][]V with a first-seen
// key list for the intermediate buffer, a map[K]V with a first-emitted
// key list for the hashtable) with the same emission script, and
// compares everything user code can observe: the order lreduce sees key
// groups in, the values of each group, State order, Len, Value answers
// and the default Output. The eager workloads' oracles trust exactly
// these semantics.

// scriptRec is one EmitLocalIntermediate call.
type scriptRec struct{ key, val int }

// scriptElem is one lmap element: it probes Value(probe), then emits.
type scriptElem struct {
	probe int
	emits []scriptRec
}

// script is one gmap task: a list of local iterations, each a list of
// lmap elements.
type script [][]scriptElem

const scriptKeys = 24

// How an iteration of a decoded script relates to the one before it: the
// context reuses its buffers from one iteration to the next, so scripts
// repeat an iteration's keys — exactly, up to one changed key at the
// first, a middle or the last emission, with the tail cut off, or with
// more emissions after the end — as well as drawing fresh ones.
const (
	iterFresh = iota
	iterRepeat
	iterDivergeFirst
	iterDivergeMiddle
	iterDivergeLast
	iterShorter
	iterLonger
	iterModes
)

// decodeScript reads a script off data; a short input decodes as if
// padded with zeros, so every byte string is a valid script. An
// iteration's header byte h gives its mode, h/20 (of the iterModes, the
// first iteration always fresh), and a count, h%20: the number of
// elements of a fresh iteration, and how much an iterShorter or
// iterLonger one cuts off or adds.
func decodeScript(data []byte) script {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	freshElems := func(n int) []scriptElem {
		elems := make([]scriptElem, n)
		for e := range elems {
			el := &elems[e]
			el.probe = next() % scriptKeys
			el.emits = make([]scriptRec, next()%4)
			for r := range el.emits {
				el.emits[r] = scriptRec{key: next() % scriptKeys, val: next()}
			}
		}
		return elems
	}
	b := next()
	sc := make(script, 1+b%4+b>>6)
	for it := range sc {
		h := next()
		mode, count := h/20%iterModes, h%20
		if it == 0 || mode == iterFresh {
			sc[it] = freshElems(count)
			continue
		}
		// Same probes and keys as the last iteration, new values.
		salt := next()
		var emits []*scriptRec
		elems := make([]scriptElem, len(sc[it-1]))
		for e, prev := range sc[it-1] {
			elems[e] = scriptElem{probe: prev.probe, emits: slices.Clone(prev.emits)}
			for r := range elems[e].emits {
				rec := &elems[e].emits[r]
				rec.val = (rec.val + salt + len(emits)) % 256
				emits = append(emits, rec)
			}
		}
		otherKey := func(i int) {
			if len(emits) > 0 {
				emits[i].key = (emits[i].key + 1 + next()%(scriptKeys-1)) % scriptKeys
			}
		}
		switch mode {
		case iterDivergeFirst:
			otherKey(0)
		case iterDivergeMiddle:
			otherKey(len(emits) / 2)
		case iterDivergeLast:
			otherKey(len(emits) - 1)
		case iterShorter:
			// Cut emissions off the end, then maybe whole elements too.
			for cut := 1 + count%3; cut > 0 && len(elems) > 0; {
				last := &elems[len(elems)-1]
				if len(last.emits) == 0 {
					elems = elems[:len(elems)-1]
					continue
				}
				last.emits = last.emits[:len(last.emits)-1]
				cut--
			}
			if count >= 10 {
				elems = elems[:len(elems)/2]
			}
		case iterLonger:
			elems = append(elems, freshElems(1+count%3)...)
		}
		sc[it] = elems
	}
	return sc
}

// reduceRule is the lreduce both sides run: fold a group to its sum and
// store it unless the sum is a multiple of four, so the hashtable gains
// keys irregularly and re-emits overwrite.
func reduceRule(values []int) (sum int, store bool) {
	for _, v := range values {
		sum += v
	}
	return sum, sum%4 != 0
}

// keyOf maps a script key to an emitted one: sparse and signed.
func keyOf(k int) int64 { return int64(k)*1_000_003 - 7_000_000 }

// modelTrace runs sc on the model and returns what user code would
// observe, one line per observation.
func modelTrace(sc script, reset bool) []string {
	var (
		trace     []string
		stateKeys []int64
		state     = map[int64]int{}
	)
	for _, elems := range sc {
		var interKeys []int64
		inter := map[int64][]int{}
		for _, el := range elems {
			v, ok := state[keyOf(el.probe)]
			trace = append(trace, fmt.Sprintf("probe %d = %d %v", keyOf(el.probe), v, ok))
			for _, r := range el.emits {
				k := keyOf(r.key)
				if _, seen := inter[k]; !seen {
					interKeys = append(interKeys, k)
				}
				inter[k] = append(inter[k], r.val)
			}
		}
		if reset {
			stateKeys, state = nil, map[int64]int{}
		}
		for _, k := range interKeys {
			trace = append(trace, fmt.Sprintf("group %d %v", k, inter[k]))
			if sum, store := reduceRule(inter[k]); store {
				if _, seen := state[k]; !seen {
					stateKeys = append(stateKeys, k)
				}
				state[k] = sum
			}
		}
		trace = append(trace, fmt.Sprintf("len %d", len(state)))
		for _, k := range stateKeys {
			trace = append(trace, fmt.Sprintf("state %d = %d", k, state[k]))
		}
	}
	for _, k := range stateKeys {
		trace = append(trace, fmt.Sprintf("out %d = %d", k, state[k]))
	}
	return trace
}

// scriptPart is the partition payload of the real run: the script, a
// cursor, and the observations so far.
type scriptPart struct {
	sc    script
	iter  int
	trace []string
}

func scriptSpec(reset bool) *LocalSpec[*scriptPart, int, int64, int] {
	return &LocalSpec[*scriptPart, int, int64, int]{
		Elements: func(p *scriptPart) []int {
			elems := make([]int, len(p.sc[p.iter]))
			for i := range elems {
				elems[i] = i
			}
			return elems
		},
		LMap: func(lc *LocalContext[int64, int], p *scriptPart, e int) {
			el := p.sc[p.iter][e]
			v, ok := lc.Value(keyOf(el.probe))
			p.trace = append(p.trace, fmt.Sprintf("probe %d = %d %v", keyOf(el.probe), v, ok))
			for _, r := range el.emits {
				lc.EmitLocalIntermediate(keyOf(r.key), r.val)
			}
		},
		LReduce: func(lc *LocalContext[int64, int], p *scriptPart, key int64, values []int) {
			p.trace = append(p.trace, fmt.Sprintf("group %d %v", key, values))
			if sum, store := reduceRule(values); store {
				lc.EmitLocal(key, sum)
			}
		},
		Apply: func(p *scriptPart, lc *LocalContext[int64, int]) {
			p.trace = append(p.trace, fmt.Sprintf("len %d", lc.Len()))
			lc.State(func(k int64, v int) {
				p.trace = append(p.trace, fmt.Sprintf("state %d = %d", k, v))
			})
			p.iter++
		},
		Converged: func(p *scriptPart, _ *LocalContext[int64, int]) bool {
			return p.iter == len(p.sc)
		},
		ResetStatePerIteration: reset,
	}
}

// checkAgainstModel runs every script of scripts as one split of a
// map-only job through BuildGMap and compares each task's observations
// and default Output to the model's. The job runs twice so the engine's
// pooled buffers are reused as well.
func checkAgainstModel(t *testing.T, scripts []script, reset bool) {
	t.Helper()
	job := &mapreduce.Job[*scriptPart, int64, int]{Name: "script", Map: BuildGMap(scriptSpec(reset))}
	engine := testEngine()
	engine.Parallelism = 1 // output in split order
	for round := 0; round < 2; round++ {
		splits := make([]mapreduce.Split[*scriptPart], len(scripts))
		for i, sc := range scripts {
			splits[i] = mapreduce.Split[*scriptPart]{Data: &scriptPart{sc: sc}}
		}
		res, err := mapreduce.Run(engine, job, splits)
		if err != nil {
			t.Fatal(err)
		}
		out := res.Output
		for i, sc := range scripts {
			// The model's trailing "out" lines are this task's share of
			// the job's output.
			got := splits[i].Data.trace
			want := modelTrace(sc, reset)
			for j := len(got); j < len(want); j++ {
				if len(out) == 0 {
					t.Fatalf("round %d task %d: Output ended before %q", round, i, want[j])
				}
				got = append(got, fmt.Sprintf("out %d = %d", out[0].Key, out[0].Value))
				out = out[1:]
			}
			if !slices.Equal(got, want) {
				for j := range want {
					if j >= len(got) || got[j] != want[j] {
						t.Fatalf("round %d task %d (reset %v): observation %d differs\n got %q\nwant %q",
							round, i, reset, j, got[min(j, len(got)-1):], want[j:])
					}
				}
				t.Fatalf("round %d task %d: %d extra observations %q", round, i, len(got)-len(want), got[len(want):])
			}
		}
		if len(out) != 0 {
			t.Fatalf("round %d: %d records beyond every task's hashtable: %v", round, len(out), out)
		}
	}
}

// checkAllVariants splits data into three scripts and checks them with
// and without ResetStatePerIteration.
func checkAllVariants(t *testing.T, data []byte) {
	t.Helper()
	third := len(data) / 3
	scripts := []script{decodeScript(data[:third]), decodeScript(data[third : 2*third]), decodeScript(data[2*third:])}
	for _, reset := range []bool{false, true} {
		checkAgainstModel(t, scripts, reset)
	}
}

func TestLocalContextMatchesModel(t *testing.T) {
	rng := stats.NewRNG(0xD1FF)
	for i := 0; i < 64; i++ {
		data := make([]byte, 16+rng.Intn(700))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		checkAllVariants(t, data)
	}
}

// sweep is one local iteration of ten elements emitting two records each
// over the keys lo..lo+span-1, values salted so that no two iterations
// fold to the same sums.
func sweep(lo, span, salt int) []scriptElem {
	elems := make([]scriptElem, 10)
	for e := range elems {
		elems[e] = scriptElem{probe: lo + e%span, emits: []scriptRec{
			{key: lo + e%span, val: salt + e},
			{key: lo + (3*e+1)%span, val: 2*salt + e},
		}}
	}
	return elems
}

// rekeyed is elems with emission i (counted across elements) on key.
func rekeyed(elems []scriptElem, i, key int) []scriptElem {
	out := make([]scriptElem, len(elems))
	for e, el := range elems {
		out[e] = scriptElem{probe: el.probe, emits: slices.Clone(el.emits)}
		if i >= 0 && i < len(el.emits) {
			out[e].emits[i].key = key
		}
		i -= len(el.emits)
	}
	return out
}

// TestReplayedIterationsMatchModel walks a task's context through every
// way an iteration can relate to the one before it: the same keys, one
// key changed at the first, a middle and the last emission, fewer
// emissions, none, more — each followed by an exact repeat — and then
// through splits over other key sets, including one whose first
// iteration emits exactly what the previous split's last one did.
func TestReplayedIterationsMatchModel(t *testing.T) {
	walk := func(lo, span int) script {
		base := func(salt int) []scriptElem { return sweep(lo, span, salt) }
		last := 2*len(base(0)) - 1
		other := lo + span // a key no sweep over lo..lo+span-1 emits
		return script{
			base(1), base(2),
			rekeyed(base(3), 0, other), rekeyed(base(4), 0, other),
			rekeyed(base(5), last/2, other), rekeyed(base(6), last/2, other),
			rekeyed(base(7), last, other), rekeyed(base(8), last, other),
			base(9)[:9], base(10)[:9], base(11)[:1], nil, nil,
			base(12), append(base(13), base(14)[:3]...), base(15),
		}
	}
	scripts := []script{
		walk(0, 7),
		walk(8, 15),         // disjoint keys, more of them
		walk(0, 7),          // the first split again
		{sweep(0, 7, 99)},   // starts where that one ended: same keys, other values
		{nil},               // nothing to group at all
		{sweep(3, 12, 100)}, // overlapping keys after the empty iteration
	}
	for _, reset := range []bool{false, true} {
		checkAgainstModel(t, scripts, reset)
	}
}

func FuzzLocalContextGrouping(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 9, 1, 2, 5, 7, 5, 9, 2, 1, 5, 1, 3, 2, 2, 1, 5, 6, 3, 1, 4, 4})
	f.Fuzz(checkAllVariants)
}
