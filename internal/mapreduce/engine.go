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
// and returned as an error tagged with the task. Every buffer is the
// run's own.
func Run[P any, K comparable, V any](e *Engine, job *Job[P, K, V], splits []Split[P]) (*Result[K, V], error) {
	nReduce, err := job.validate(e.ReduceSlots())
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("mapreduce: job %q has no input splits", job.Name)
	}
	part := job.Partition
	if part == nil {
		part = genericPartition[K]
	}
	mapOnly := job.Reduce == nil
	res := &Result[K, V]{Maps: make([]TaskStats, len(splits))}

	// --- map phase ------------------------------------------------------
	// mapOuts[i] is map task i's output, routed[i][p] the part of it for
	// reduce task p. A map task whose partitioner routes a key outside
	// [0, nReduce) stops routing and leaves its error in misrouted[i].
	mapOuts := make([][]KV[K, V], len(splits))
	routed := make([][][]KV[K, V], len(splits))
	misrouted := make([]error, len(splits))
	err = e.ForEachTask(len(splits), func(i int) error {
		sp := &splits[i]
		ctx := &TaskContext[K, V]{}
		job.Map(ctx, *sp)
		if job.Combine != nil {
			keys, groups := group(ctx.out)
			ctx.out = ctx.out[:0]
			for g, k := range keys {
				for _, v := range job.Combine(k, groups[g]) {
					ctx.Emit(k, v)
				}
			}
		}
		mapOuts[i] = ctx.out
		res.Maps[i] = TaskStats{
			InRecords:  sp.Records,
			InBytes:    sp.Bytes,
			OutRecords: int64(len(ctx.out)),
			OutBytes:   recordBytes(job.RecordSize, ctx.out),
			Ops:        ctx.ops,
			LocalSyncs: ctx.localSyncs,
		}
		if mapOnly {
			return nil
		}
		routed[i] = make([][]KV[K, V], nReduce)
		for _, kv := range ctx.out {
			p := part(kv.Key, nReduce)
			if p < 0 || p >= nReduce {
				misrouted[i] = fmt.Errorf("mapreduce: job %q partitioner returned %d for %d partitions", job.Name, p, nReduce)
				return nil
			}
			routed[i][p] = append(routed[i][p], kv)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q map phase: %w", job.Name, err)
	}
	for _, err := range misrouted {
		if err != nil {
			return nil, err
		}
	}
	if mapOnly {
		res.Cost = e.Price(res.Maps, nil)
		res.Output = slices.Concat(mapOuts...)
		return res, nil
	}

	// --- reduce phase ---------------------------------------------------
	// Reduce task p concatenates routed[i][p] in map-task order: the
	// sequence a serial shuffle appending each map task's records in turn
	// would build.
	redOuts := make([][]KV[K, V], nReduce)
	res.Reduces = make([]TaskStats, nReduce)
	err = e.ForEachTask(nReduce, func(p int) error {
		var in []KV[K, V]
		for i := range routed {
			in = append(in, routed[i][p]...)
		}
		keys, groups := group(in)
		ctx := &TaskContext[K, V]{out: make([]KV[K, V], 0, len(keys))}
		for g, k := range keys {
			job.Reduce(ctx, k, groups[g])
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
	res.Output = slices.Concat(redOuts...)
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

// group groups records by key, with one map lookup per record: keys in
// first-seen order (deterministic without an ordering on K), groups[g]
// key g's values in record order, all of them windows of one slab.
func group[K comparable, V any](records []KV[K, V]) (keys []K, groups [][]V) {
	idx := make(map[K]int, len(records)/2)
	gid := make([]int, len(records))
	var ends []int
	for i, kv := range records {
		g, ok := idx[kv.Key]
		if !ok {
			g = len(keys)
			idx[kv.Key] = g
			keys = append(keys, kv.Key)
			ends = append(ends, 0)
		}
		ends[g]++
		gid[i] = g
	}
	// ends[g] becomes group g's start, then a cursor that stops at its
	// end.
	sum := 0
	for g, c := range ends {
		ends[g] = sum
		sum += c
	}
	values := make([]V, len(records))
	for i, g := range gid {
		values[ends[g]] = records[i].Value
		ends[g]++
	}
	groups = make([][]V, len(keys))
	lo := 0
	for g, end := range ends {
		groups[g], lo = values[lo:end:end], end
	}
	return keys, groups
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
