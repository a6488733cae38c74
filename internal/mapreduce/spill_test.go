package mapreduce

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The shuffle is done by the tasks: each map task partitions its output
// into one list per reduce task, and each reduce task concatenates its
// list of every map task in map-task order. The model below is a serial
// shuffle — every map output in map-task order, each record appended to
// its partition's input — run over map outputs the model computes on its
// own, the combine step folded through a map[K][]V in first-seen key
// order. Every generated job's reduce inputs, as a reduce that emits
// every value it is handed in order reads them, must come out record for
// record and bit for bit as the model's, and so must its shuffle counts.

// serialShuffle is the model: the reduce inputs, shuffled records and
// shuffled bytes of job over splits with nReduces reduce tasks.
func serialShuffle[P any](t *testing.T, job *Job[P, int64, float64], splits []Split[P], nReduces int) (parts [][]KV[int64, float64], records, bytes int64) {
	t.Helper()
	partition, size := job.Partition, job.RecordSize
	if partition == nil {
		partition = genericPartition[int64]
	}
	if size == nil {
		size = func(int64, float64) int64 { return 16 }
	}
	parts = make([][]KV[int64, float64], nReduces)
	for _, sp := range splits {
		ctx := &TaskContext[int64, float64]{}
		job.Map(ctx, sp)
		out := ctx.out
		if job.Combine != nil {
			var keys []int64
			groups := map[int64][]float64{}
			for _, kv := range out {
				if _, seen := groups[kv.Key]; !seen {
					keys = append(keys, kv.Key)
				}
				groups[kv.Key] = append(groups[kv.Key], kv.Value)
			}
			out = nil
			for _, k := range keys {
				for _, v := range job.Combine(k, groups[k]) {
					out = append(out, KV[int64, float64]{Key: k, Value: v})
				}
			}
		}
		for _, kv := range out {
			p := partition(kv.Key, nReduces)
			if p < 0 || p >= nReduces {
				t.Fatalf("model: partitioner returned %d for %d partitions", p, nReduces)
			}
			parts[p] = append(parts[p], kv)
			records++
			bytes += size(kv.Key, kv.Value)
		}
	}
	return parts, records, bytes
}

// shuffleCase is a generated job: splits[i] lists the records map task
// i emits, and the flags pick the job's combiner, partitioner and record
// size.
type shuffleCase struct {
	splits      [][]KV[int64, float64]
	nReduces    int
	parallelism int
	combine     bool
	partitioner int // 0 nil (generic), 1 Int64Partition, 2 reversed, 3 all to the last task
	sized       bool
}

// decodeShuffleCase reads a case from data, as if padded with zeros: 1–9
// map tasks of 0–23 records each over 12 keys, some negative, and 1–20
// reduce tasks, so that some cases have more reduce tasks than records.
func decodeShuffleCase(data []byte) shuffleCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	c := shuffleCase{
		nReduces:    1 + next()%20,
		parallelism: 1 + next()%4,
		combine:     flags&1 != 0,
		partitioner: flags >> 1 & 3,
		sized:       flags&8 != 0,
	}
	c.splits = make([][]KV[int64, float64], 1+next()%9)
	for i := range c.splits {
		recs := make([]KV[int64, float64], next()%24)
		for j := range recs {
			// A value's bits differ from its neighbours' in the low
			// mantissa, so a sum in another order shows.
			recs[j] = KV[int64, float64]{Key: int64(next()%12 - 4), Value: 1 + float64(next())/3}
		}
		c.splits[i] = recs
	}
	return c
}

// job builds the case's job. Its reduce emits each group's sum.
func (c shuffleCase) job() *Job[[]KV[int64, float64], int64, float64] {
	sum := func(values []float64) float64 {
		s := 0.0
		for _, v := range values {
			s += v
		}
		return s
	}
	job := &Job[[]KV[int64, float64], int64, float64]{
		Name:       "spill",
		NumReduces: c.nReduces,
		Map: func(ctx *TaskContext[int64, float64], split Split[[]KV[int64, float64]]) {
			for _, kv := range split.Data {
				ctx.Emit(kv.Key, kv.Value)
			}
		},
		Reduce: func(ctx *TaskContext[int64, float64], key int64, values []float64) {
			ctx.Emit(key, sum(values))
		},
	}
	if c.combine {
		job.Combine = func(_ int64, values []float64) []float64 { return []float64{sum(values)} }
	}
	switch c.partitioner {
	case 1:
		job.Partition = Int64Partition
	case 2:
		job.Partition = func(k int64, n int) int { return n - 1 - Int64Partition(k, n) }
	case 3:
		job.Partition = func(_ int64, n int) int { return n - 1 }
	}
	if c.sized {
		job.RecordSize = func(k int64, v float64) int64 { return 8 + k&3 + int64(v)%5 }
	}
	return job
}

func (c shuffleCase) inputs() []Split[[]KV[int64, float64]] {
	splits := make([]Split[[]KV[int64, float64]], len(c.splits))
	for i, recs := range c.splits {
		splits[i] = Split[[]KV[int64, float64]]{Data: recs, Records: int64(len(recs))}
	}
	return splits
}

// checkSpillMatchesSerialShuffle runs the case decoded from data with a
// reduce that emits every value in order, and compares what each reduce
// task was handed, and the shuffle counts, with the model's: reduce task
// p must emit the model's input p grouped by key in first-seen order.
func checkSpillMatchesSerialShuffle(t *testing.T, data []byte) {
	t.Helper()
	c := decodeShuffleCase(data)
	job, splits := c.job(), c.inputs()
	want, wantRecords, wantBytes := serialShuffle(t, job, splits, c.nReduces)
	job.Reduce = func(ctx *TaskContext[int64, float64], key int64, values []float64) {
		for _, v := range values {
			ctx.Emit(key, v)
		}
	}
	engine := testEngine()
	engine.Parallelism = c.parallelism
	res, err := Run(engine, job, splits)
	if err != nil {
		t.Fatalf("case %+v: %v", c, err)
	}
	if res.ShuffleRecords != wantRecords || res.ShuffleBytes != wantBytes {
		t.Fatalf("case %+v: shuffled %d records, %d bytes; the serial shuffle %d, %d",
			c, res.ShuffleRecords, res.ShuffleBytes, wantRecords, wantBytes)
	}
	if len(res.Reduces) != c.nReduces {
		t.Fatalf("case %+v: %d reduce tasks, want %d", c, len(res.Reduces), c.nReduces)
	}
	out := res.Output
	for p := range want {
		n := res.Reduces[p].OutRecords
		if res.Reduces[p].InRecords != int64(len(want[p])) || n != int64(len(want[p])) || n > int64(len(out)) {
			t.Fatalf("case %+v: reduce task %d read %d records and emitted %d of %d left, want %d",
				c, p, res.Reduces[p].InRecords, n, len(out), len(want[p]))
		}
		if got, want := out[:n], groupedInOrder(want[p]); !slices.EqualFunc(got, want, sameRecord) {
			t.Fatalf("case %+v: reduce task %d was handed\n got %v\nwant %v", c, p, got, want)
		}
		out = out[n:]
	}
}

// groupedInOrder is the model of a grouping: records with each key's
// records moved up behind its first, keys in first-seen order and values
// in record order.
func groupedInOrder[K comparable, V any](records []KV[K, V]) []KV[K, V] {
	var keys []K
	groups := map[K][]KV[K, V]{}
	for _, kv := range records {
		if _, seen := groups[kv.Key]; !seen {
			keys = append(keys, kv.Key)
		}
		groups[kv.Key] = append(groups[kv.Key], kv)
	}
	var out []KV[K, V]
	for _, k := range keys {
		out = append(out, groups[k]...)
	}
	return out
}

// checkGrouping compares group's grouping of each map task's records of
// the case decoded from data with the model's.
func checkGrouping(t *testing.T, data []byte) {
	t.Helper()
	for _, records := range decodeShuffleCase(data).splits {
		var got []KV[int64, float64]
		keys, groups := group(records)
		for g, k := range keys {
			for _, v := range groups[g] {
				got = append(got, KV[int64, float64]{Key: k, Value: v})
			}
		}
		if want := groupedInOrder(records); !slices.EqualFunc(got, want, sameRecord) {
			t.Fatalf("records %v grouped\n got %v\nwant %v", records, got, want)
		}
	}
}

func sameRecord(a, b KV[int64, float64]) bool {
	return a.Key == b.Key && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// generated calls check on n byte strings walked from a simple generator
// seeded with x: cases beside the fuzz corpus, where every byte string is
// one, and every flag combination comes up.
func generated(t *testing.T, n int, x uint32, check func(*testing.T, []byte)) {
	for i := 0; i < n; i++ {
		data := make([]byte, 4+i%97)
		for j := range data {
			x = x*1664525 + 1013904223
			data[j] = byte(x >> 24)
		}
		data[0] = byte(i)
		check(t, data)
	}
}

// fuzzSeeds adds the shuffle fuzzers' corpus: nothing, and a combiner
// and Int64Partition with 7 reduce tasks, 2 workers and 3 map tasks of
// 4 records, none and 2 records.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 6, 1, 2, 4, 1, 10, 2, 20, 1, 30, 13, 40, 0, 2, 5, 50, 6, 60})
}

func FuzzSpillMatchesSerialShuffle(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(checkSpillMatchesSerialShuffle)
}

func TestSpillMatchesSerialShuffle(t *testing.T) {
	generated(t, 400, 7, checkSpillMatchesSerialShuffle)
}

func FuzzGrouperMatchesModel(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(checkGrouping)
}

func TestGrouperMatchesModel(t *testing.T) { generated(t, 300, 15, checkGrouping) }

// Run resolves a job's defaults for itself: the Job is left as written,
// so a job that ran on a one-node cluster runs on an eight-node one as a
// fresh job does.
func TestRunLeavesJobDefaultsUnset(t *testing.T) {
	splits := textSplits("x y z x", "y x w", "w w w", "v u")
	job := wordCountJob()
	if _, err := Run(testEngine(), job, splits); err != nil {
		t.Fatal(err)
	}
	if job.NumReduces != 0 || job.Partition != nil || job.RecordSize != nil {
		t.Fatalf("Run wrote its defaults into the job: NumReduces %d, Partition set %v, RecordSize set %v",
			job.NumReduces, job.Partition != nil, job.RecordSize != nil)
	}
	reused, err := Run(ec2Engine(), job, splits)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(ec2Engine(), wordCountJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", *reused), fmt.Sprintf("%+v", *fresh); got != want {
		t.Fatalf("the job that ran on one node returned on EC2\n%s\na fresh job\n%s", got, want)
	}
}
