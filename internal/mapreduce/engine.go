package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/simtime"
)

// Engine runs jobs against a simulated cluster. It is safe to run jobs
// sequentially from one goroutine; concurrent Run calls on the same
// engine would interleave the cluster's stochastic draws and are not
// supported.
type Engine struct {
	cluster *cluster.Cluster
	// Parallelism bounds the real goroutines used to execute user code;
	// it does not affect simulated time. Defaults to GOMAXPROCS.
	Parallelism int
}

// NewEngine returns an engine bound to the given simulated cluster.
func NewEngine(c *cluster.Cluster) *Engine {
	return &Engine{cluster: c, Parallelism: runtime.GOMAXPROCS(0)}
}

// Cost is a job's simulated price (Engine.Price).
type Cost struct {
	// Duration is the job's simulated time: job overhead, map wave,
	// shuffle and reduce wave, one after the other.
	Duration simtime.Duration
	// Failures counts failed attempts that were replayed.
	Failures int
	// ShuffleRecords/ShuffleBytes measure the intermediate data volume
	// that crossed the map→reduce barrier.
	ShuffleRecords int64
	ShuffleBytes   int64
	// LocalSyncs sums the partial synchronizations (TaskContext.LocalSync)
	// of all map tasks.
	LocalSyncs int64
}

// Result carries a finished job's output, what each of its tasks
// recorded, and their price.
type Result[K comparable, V any] struct {
	// Output holds the final records in deterministic order (reduce
	// partition order, first-seen key order within a partition).
	Output []KV[K, V]
	// Maps[i] is map task i's record, Reduces[p] reduce task p's; a
	// map-only job has no Reduces.
	Maps, Reduces []TaskStats
	Cost
}

// Run executes one job over the given splits and reports its simulated
// time, priced by the cluster, in Result.Duration. User code runs
// concurrently on real goroutines; any panic in user code is recovered
// and returned as an error tagged with the task.
func Run[P any, K comparable, V any](e *Engine, job *Job[P, K, V], splits []Split[P]) (*Result[K, V], error) {
	nReduce, err := job.validate(e.ReduceSlots())
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("mapreduce: job %q has no input splits", job.Name)
	}
	res := &Result[K, V]{}

	// --- map phase ------------------------------------------------------
	// Map tasks emit and spill into, and reduce tasks fetch into, buffers
	// the job keeps from its previous run; nothing in them outlives this
	// call (Result.Output is a copy no buffer of the job's aliases). A map
	// task of a job with a reduce phase partitions its own output (spill),
	// so nothing per record runs between the waves.
	mapOnly := job.Reduce == nil
	sc := job.takeScratch(len(splits), nReduce)
	defer job.scratch.Store(sc)
	mapOuts, spills := sc.mapOuts, sc.spills
	res.Maps = make([]TaskStats, len(splits))
	err = e.ForEachTask(len(splits), func(i int) error {
		sp := &splits[i]
		ctx := &TaskContext[K, V]{out: mapOuts[i][:0]}
		job.Map(ctx, *sp)
		if job.Combine != nil {
			combineTaskOutput(job, &sc.combiners[i], ctx)
		}
		mapOuts[i] = ctx.out
		if !mapOnly {
			if err := spills[i].fill(ctx.out, nReduce, job.Partition); err != nil {
				return err
			}
		}
		res.Maps[i] = TaskStats{
			InRecords:  sp.Records,
			InBytes:    sp.Bytes,
			OutRecords: int64(len(ctx.out)),
			OutBytes:   recordBytes(job.RecordSize, ctx.out),
			Ops:        ctx.ops,
			LocalSyncs: ctx.localSyncs,
		}
		return nil
	})
	if pe, ok := err.(partitionError); ok {
		return nil, fmt.Errorf("mapreduce: job %q partitioner returned %d for %d partitions", job.Name, pe.p, pe.n)
	}
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q map phase: %w", job.Name, err)
	}
	if mapOnly {
		res.Cost = e.Price(res.Maps, nil)
		res.Output = sc.takeOutput(mapOuts)
		return res, nil
	}

	// --- reduce phase ---------------------------------------------------
	// Reduce task p fetches region p of every spill in map-task order. A
	// spill's regions keep emission order, so parts[p] is the sequence a
	// serial shuffle appending each map task's records in turn would have
	// built, and the grouping and every sum over it come out the same.
	parts, redOuts := sc.parts, sc.redOuts
	res.Reduces = make([]TaskStats, nReduce)
	err = e.ForEachTask(nReduce, func(p int) error {
		n := 0
		for i := range spills {
			n += len(spills[i].region(p))
		}
		in := slices.Grow(parts[p][:0], n)
		for i := range spills {
			in = append(in, spills[i].region(p)...)
		}
		parts[p] = in
		ctx := &TaskContext[K, V]{out: redOuts[p][:0]}
		g := &sc.reducers[p]
		g.group(in)
		for i, k := range g.keys {
			job.Reduce(ctx, k, g.values(i))
		}
		redOuts[p] = ctx.out
		res.Reduces[p] = TaskStats{
			InRecords:  int64(len(in)),
			OutRecords: int64(len(ctx.out)),
			OutBytes:   recordBytes(job.RecordSize, ctx.out),
			Ops:        ctx.ops,
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q reduce phase: %w", job.Name, err)
	}
	res.Cost = e.Price(res.Maps, res.Reduces)
	res.Output = sc.takeOutput(redOuts)
	return res, nil
}

// Price is the cost model of one job whose map tasks recorded maps and
// whose reduce tasks recorded reduces (none: a map-only job, whose map
// tasks write their output to the DFS). Each task's price is drawn a
// straggler factor and an attempt count from the cluster, map tasks
// first, each in index order, so pricing the same records on an
// identically seeded cluster gives the same Cost. Run prices every job
// through it; a caller that computes a job's records without running it
// prices them here.
func (e *Engine) Price(maps, reduces []TaskStats) Cost {
	c := e.cluster
	cfg := c.Config()
	mapOnly := len(reduces) == 0
	cost := Cost{Duration: cfg.JobOverhead}
	durs := make([]simtime.Duration, max(len(maps), len(reduces)))
	attempt := func(d simtime.Duration) simtime.Duration {
		d = simtime.Duration(float64(d) * c.StragglerFactor())
		attempts, wasted := c.TaskAttempts()
		if attempts > 1 {
			cost.Failures += attempts - 1
			d += simtime.Duration(wasted * float64(d))
		}
		return d
	}
	for i := range maps {
		st := &maps[i]
		d := cfg.TaskOverhead
		d += c.DFSReadCost(st.InBytes, true)
		d += simtime.Duration(float64(st.InRecords)) * cfg.MapRecordCost
		d += simtime.Duration(float64(st.OutRecords)) * cfg.EmitCost
		d += c.ComputeCost(st.Ops)
		d += simtime.Duration(float64(st.LocalSyncs)) * cfg.LocalSyncOverhead
		cost.LocalSyncs += st.LocalSyncs
		if mapOnly {
			d += c.DFSWriteCost(st.OutBytes)
		}
		durs[i] = attempt(d)
	}
	cost.Duration += simtime.MakespanLPT(durs[:len(maps)], cfg.MapSlots())
	if mapOnly {
		return cost
	}

	for i := range maps {
		cost.ShuffleRecords += maps[i].OutRecords
		cost.ShuffleBytes += maps[i].OutBytes
	}
	cost.Duration += shuffleCost(c, len(maps), len(reduces), cost.ShuffleBytes)

	for i := range reduces {
		st := &reduces[i]
		d := cfg.TaskOverhead
		d += sortCost(cfg, st.InRecords)
		d += simtime.Duration(float64(st.InRecords)) * cfg.ReduceRecordCost
		d += simtime.Duration(float64(st.OutRecords)) * cfg.EmitCost
		d += c.ComputeCost(st.Ops)
		d += c.DFSWriteCost(st.OutBytes)
		durs[i] = attempt(d)
	}
	cost.Duration += simtime.MakespanLPT(durs[:len(reduces)], cfg.ReduceSlots())
	return cost
}

// ReduceSlots is the cluster's reduce slot count: the reduce tasks of a
// job that leaves NumReduces 0.
func (e *Engine) ReduceSlots() int { return e.cluster.Config().ReduceSlots() }

// shuffleCost prices the all-to-all intermediate transfer. The aggregate
// fabric moves totalBytes with per-node NICs as the bottleneck; a
// (nodes-1)/nodes fraction of bytes actually crosses the network (records
// whose reducer is co-located move for free). Fetch latencies are paid by
// each reducer contacting each map output, with Hadoop's default five
// parallel copier threads.
func shuffleCost(c *cluster.Cluster, nMaps, nReduces int, totalBytes int64) simtime.Duration {
	cfg := c.Config()
	nodes := cfg.Nodes
	crossBytes := totalBytes
	if nodes > 1 {
		crossBytes = totalBytes * int64(nodes-1) / int64(nodes)
	} else {
		crossBytes = 0
	}
	// Bandwidth term: bytes per node over per-node NIC bandwidth.
	perNode := float64(crossBytes) / float64(nodes)
	d := c.TransferCost(int64(perNode))
	// Latency term: each reducer performs nMaps fetches with 5 parallel
	// copiers; reducers run concurrently, so charge one reducer's chain.
	fetches := (nMaps + 4) / 5
	d += simtime.Duration(fetches) * cfg.NetLatency
	return d
}

// sortCost prices the merge sort of n records in one reduce task.
func sortCost(cfg *cluster.Config, n int64) simtime.Duration {
	if n <= 1 {
		return 0
	}
	log2 := 0
	for x := n; x > 1; x >>= 1 {
		log2++
	}
	return simtime.Duration(float64(n*int64(log2))) * cfg.SortCostPerRecord
}

// grouper groups records by key into a reusable CSR-style layout:
// keys in first-seen order (deterministic without an ordering on K),
// all values in one slab, offs[i] marking the end of group i. It also
// remembers the grouping as a plan — seq, the key of every record it
// grouped, and pos, the slab position that record's value went to — and
// replays the plan when the next records carry the same key sequence.
// One grouper serves one task of a job from run to run, so the steady
// state allocates nothing and, for an iterative job, hashes nothing.
type grouper[K comparable, V any] struct {
	keys []K
	idx  map[K]int32
	offs []int32
	slab []V
	seq  []K
	pos  []int32
}

// group builds the grouping of records. While each record's key is the
// one the last call saw at that position, its value goes straight to the
// position it went to then; if that holds to the end of both sequences,
// keys and offs already describe this grouping. Otherwise the grouping is
// rebuilt in two passes: the first assigns group ids in first-seen order
// and counts group sizes, the second scatters values through offs used as
// moving cursors, leaving offs[i] = end of group i. Value order within a
// group is record order either way, matching a map[K][]V filled in record
// order.
func (g *grouper[K, V]) group(records []KV[K, V]) {
	if len(records) == len(g.seq) {
		i := 0
		for ; i < len(records) && records[i].Key == g.seq[i]; i++ {
			g.slab[g.pos[i]] = records[i].Value
		}
		if i == len(records) {
			return
		}
	}
	if g.idx == nil {
		g.idx = make(map[K]int32, len(records)/2+1)
	} else {
		clear(g.idx)
	}
	n := len(records)
	g.keys = g.keys[:0]
	g.offs = g.offs[:0]
	g.seq = slices.Grow(g.seq[:0], n)[:n]
	g.pos = slices.Grow(g.pos[:0], n)[:n]
	for i, kv := range records {
		gi, ok := g.idx[kv.Key]
		if !ok {
			gi = int32(len(g.keys))
			g.idx[kv.Key] = gi
			g.keys = append(g.keys, kv.Key)
			g.offs = append(g.offs, 0)
		}
		g.offs[gi]++
		g.seq[i] = kv.Key
		g.pos[i] = gi // until pass two
	}
	var sum int32
	for i, c := range g.offs {
		g.offs[i] = sum
		sum += c
	}
	g.slab = slices.Grow(g.slab[:0], n)[:n]
	for i, gi := range g.pos {
		p := g.offs[gi]
		g.slab[p] = records[i].Value
		g.pos[i] = p
		g.offs[gi] = p + 1
	}
}

// values returns group i's value slice. The slice aliases the grouper's
// slab: it is valid until the next group call, so callers must not
// retain it past the current key group.
func (g *grouper[K, V]) values(i int) []V {
	lo := int32(0)
	if i > 0 {
		lo = g.offs[i-1]
	}
	return g.slab[lo:g.offs[i]]
}

// combineTaskOutput applies the job's combiner to one map task's buffered
// output in place, grouping with the task's grouper g.
func combineTaskOutput[P any, K comparable, V any](job *Job[P, K, V], g *grouper[K, V], ctx *TaskContext[K, V]) {
	out := ctx.out[:0]
	g.group(ctx.out)
	for i, k := range g.keys {
		for _, v := range job.Combine(k, g.values(i)) {
			out = append(out, KV[K, V]{Key: k, Value: v})
		}
	}
	ctx.out = out
}

// ForEachTask runs fn(i) for every i in [0,n) on up to Parallelism real
// goroutines, the calling one among them, each claiming the next index
// from a shared counter: the loop every job's tasks run on. A panic in fn
// becomes that task's error; the other tasks still run, and the first
// error reported is returned.
func (e *Engine) ForEachTask(n int, fn func(i int) error) error {
	workers := e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		mu    sync.Mutex
		first error
	)
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if err := runTask(i, fn); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}
	}
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}

// runTask invokes fn(i), converting panics in user code into errors so a
// bad mapper cannot take down the whole experiment process.
func runTask(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}
