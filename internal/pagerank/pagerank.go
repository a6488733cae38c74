// Package pagerank implements the paper's PageRank workload (§V-B) in
// both formulations:
//
//   - General: the synchronous MapReduce baseline. Each map task takes a
//     complete partition (the paper's baseline "for which maps operate on
//     complete partitions, as opposed to single node adjacency lists",
//     chosen because it is the more competitive baseline) and sums each
//     node's rank contribution per out-link destination over the
//     partition's pull plan; the reduce accumulates the
//     partitions' sums and applies the PageRank formula. One global
//     synchronization per sweep over the graph.
//
//   - Eager: the partial-synchronization formulation. Each global map
//     runs local iterations on its sub-graph until the sub-graph's ranks
//     are self-consistent, treating cross-partition contributions as
//     frozen "ghost" values; only then does a global synchronization
//     disseminate ranks across sub-graphs. Serial operation count rises;
//     global synchronizations fall; on a distributed platform time falls
//     with them. A local iteration is the paper's lmap/lreduce pair,
//     computed as one Jacobi sweep over the partition's pull plan and
//     priced as what internal/core's runtime would charge for the pair.
//
// A global iteration of either is the MapReduce job it models, run
// without records and owner-computes: each partition keeps its nodes'
// ranks and contributions by pull position, its map task folds every
// node's in-partition sum, and a node that only its own partition feeds
// takes its new rank there and then, since its reduce would add that one
// sum. Only a node fed across the cut is deferred to a second pass on its
// owner, which adds the emitting partitions' sums in partition order, the
// order the engine's shuffle hands a reduce its values. The job is priced
// from the per-task counts the engine would record
// (mapreduce.Engine.Price). The job through internal/mapreduce and
// internal/core is the tests' oracle.
//
// Both use the paper's rank update (equation 1):
//
//	PR(d) = (1-χ) + χ * Σ_{(s,d)∈E} PR(s)/outdeg(s)
//
// with damping χ = 0.85, all ranks initialized to 1, and convergence
// declared when the infinity norm of the rank delta drops below 1e-5.
// Reference and CertifiedError measure how far a run stopped from the
// fixed point.
package pagerank

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// Config parameterizes a PageRank run.
type Config struct {
	// Damping is the paper's χ; Table II uses 0.85.
	Damping float64
	// Epsilon is the global convergence bound on the infinity norm of
	// the per-node rank delta; the paper uses 1e-5.
	Epsilon float64
	// MaxLocalIters caps local iterations inside one gmap (0 = none),
	// and the local sweeps of one asynchronous step, where 0 means
	// AsyncLocalSweeps (async.DefaultMaxSteps restores sweeping to local
	// convergence). At 1, Eager is still not General: its sweep and the
	// fold make two Jacobi steps an iteration, so it takes between half
	// and all of General's iterations. It may not be negative.
	MaxLocalIters int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{Damping: 0.85, Epsilon: 1e-5}
}

func (c Config) validate() error {
	if !(c.Damping > 0 && c.Damping < 1) {
		return fmt.Errorf("pagerank: damping must be in (0,1), got %g", c.Damping)
	}
	if !(c.Epsilon > 0) {
		return fmt.Errorf("pagerank: epsilon must be positive, got %g", c.Epsilon)
	}
	if c.MaxLocalIters < 0 {
		return fmt.Errorf("pagerank: MaxLocalIters must not be negative, got %d", c.MaxLocalIters)
	}
	return nil
}

// Result of a PageRank run.
type Result struct {
	// Ranks[u] is the converged PageRank of node u.
	Ranks []float64
	// Stats carries the iterative run's accounting (global iterations,
	// simulated duration, local sync counts).
	Stats *core.RunStats
}

// Run executes PageRank over the given sub-graphs (from
// graph.BuildSubGraphs) on engine's cluster, one global iteration at a
// time until the largest rank change is below Epsilon. eager selects the
// formulation.
func Run(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("pagerank: no partitions")
	}
	d, err := newDriver(engine, subs, cfg, eager)
	if err != nil {
		return nil, err
	}
	stats, err := core.Iterate(func(iter int) (mapreduce.Cost, bool, error) {
		delta, cost, err := d.iterate()
		if err != nil {
			return cost, false, fmt.Errorf("pagerank: iteration %d: %w", iter, err)
		}
		return cost, delta < cfg.Epsilon, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Ranks: d.ranks(), Stats: stats}, nil
}

// driver is a general or eager run between global iterations: the
// partitions' states, the sums their map tasks leave for the reduce, and
// what the engine would record for each task of one iteration's job.
type driver struct {
	engine *mapreduce.Engine
	cfg    Config
	eager  bool
	parts  []part
	// sums holds every partition's part.sum and part.out, partition by
	// partition.
	sums []float64
	// maps[p] and reduces[r] are what map task p and reduce task r of the
	// iteration's job record. Only a map task's Ops and LocalSyncs change
	// from iteration to iteration; mapTask rewrites them.
	maps, reduces []mapreduce.TaskStats
}

// state is one partition of a PageRank run, what every formulation
// keeps by sub.Pull position: the nodes, then the plan's extra positions,
// which have no in-edge and hold rank 1-χ, what a pass computes there.
type state struct {
	sub *graph.SubGraph
	// rank is every position's rank, contrib its contribution
	// rank/outdeg, then the pad position's +0.
	rank, contrib []float64
	// ghost[r] is row r's frozen cross-partition contribution sum, 0 for
	// a row no read feeds. Only a formulation that gathers ghosts (eager,
	// async) has ghost and read.
	ghost []float64
	// read[i] is the position of sub.Exchange.Node[i], the row exchange
	// read i adds to; border[b] the position of sub.Exchange.Border[b].
	read, border []int32
}

// init sets every node's rank to 1 (§V-B), the extra positions' to 1-χ,
// and the contributions of both, and maps the exchange plan's reads and
// border to positions.
func (st *state) init(damping float64) {
	s, pos := st.sub, st.sub.Pull.Pos
	for r := range st.rank {
		st.rank[r] = 1
	}
	for r := s.NumNodes(); r < len(st.rank); r++ {
		st.rank[r] = 1 - damping
	}
	st.fillContrib()
	for i := range st.read {
		st.read[i] = pos[s.Exchange.Node[i]]
	}
	for b, li := range s.Exchange.Border {
		st.border[b] = pos[li]
	}
}

// fillContrib sets every position's contribution from its rank, as a
// pass computes it, and the pad's +0.
func (st *state) fillContrib() {
	od := st.sub.Pull.OutDeg
	for r, v := range st.rank {
		st.contrib[r] = v / od[r]
	}
	st.contrib[len(st.rank)] = 0
}

// clearGhosts zeroes the ghost sums the reads feed, the only ones a
// gather makes non-zero.
func (st *state) clearGhosts() {
	for _, r := range st.read {
		st.ghost[r] = 0
	}
}

// readRanks writes every node's rank into ranks at its global id.
func (st *state) readRanks(ranks []float64) {
	for li, u := range st.sub.Nodes {
		ranks[u] = st.rank[st.sub.Pull.Pos[li]]
	}
}

// part is one partition of a general or eager run. Every float array but
// out is indexed by position, as in state; a contribution array has the
// pad position's +0 last. A row is deferred when its node is fed across the cut, that is,
// has a cross-partition in-edge; the map task finishes every other row.
type part struct {
	state
	// rank is the ranks the iteration starts from, next the ones it
	// computes; the reduce task swaps them.
	next []float64
	// contrib is rank's contributions, which the neighbours' ghosts read
	// during the map phase; the map task writes next's into spare[0], and
	// the eager local sweeps alternate spare[0] and spare[1]. The map task
	// emits contrib, or the last local sweep's contributions.
	spare [2][]float64
	// keep[r] is 0 for a deferred row, whose change the map task must not
	// count, and 1 for every other.
	keep []float64
	// What the map task leaves for the reduce, in its windows of
	// driver.sums: sum[r] is row r's sum as the fold makes it, from 0;
	// out[e] is the sum, from 0, of the emitted contributions at
	// positions emSrc[emStart[e]:emStart[e+1]], the partition's
	// in-neighbours of one node of another partition in traversal order
	// (source ascending, adjacency order). The entries are ordered by
	// that node's partition, then as the node's reduce plan reads them.
	sum, out       []float64
	emStart, emSrc []int32
	// The reduce plan: deferred row def[k] adds, from 0,
	// driver.sums[slot[defStart[k]:defStart[k+1]]], the sums of the
	// partitions that emit it in ascending partition order.
	def, defStart, slot []int32
	// The eager ghost gather: exchange read i adds to row read[i] what it
	// finds at position at[i] of its neighbour's contributions, the
	// border node it names; in[s] is neighbour slot s's contrib. A
	// general run fills neither.
	at []int32
	in [][]float64
	// pushOps is the map task's operations, one an out-edge; delta the
	// iteration's largest rank change on this partition so far.
	pushOps int64
	delta   float64
}

// newDriver builds a run on engine's cluster. Its first round of tasks
// checks the sub-graph set and each partition's exchange and pull plans
// (checkEach), then fills the partition's state — every node at rank 1
// (§V-B) — and counts its plans and its share of the job's task counts.
// The partitions' emission plans and sums are then laid out, and a
// second round fills each partition's reduce plan and its part of the
// emission plans of the partitions that feed it. Every array is carved
// from one slab per element type, so the allocations do not grow with
// the partition count. Map task p records its split (NumNodes records
// of Bytes) and one 16-byte record per destination it emits to; reduce
// task r the records and keys that mapreduce.Int64Partition routes to r
// of the cluster's reduce slots, one operation a record.
func newDriver(engine *mapreduce.Engine, subs []*graph.SubGraph, cfg Config, eager bool) (*driver, error) {
	k, nReduces := len(subs), engine.ReduceSlots()
	d := &driver{engine: engine, cfg: cfg, eager: eager, parts: make([]part, k),
		maps: make([]mapreduce.TaskStats, k), reduces: make([]mapreduce.TaskStats, nReduces)}
	floats, slots, ints := 0, 0, k
	for _, s := range subs {
		m, x := len(s.Pull.OutDeg), &s.Exchange
		floats += 5*m + 2
		slots += len(x.Neighbors)
		ints += len(x.Border)
		if eager {
			floats += 2*m + 1
			ints += len(x.Node)
		}
	}
	fs, ins, is := make([]float64, floats), make([][]float64, slots), make([]int32, 4*slots+ints)
	red := make([]reduceCount, k*nReduces)
	sizes := make([]planSize, k)
	for p, s := range subs {
		st, z, m, nb := &d.parts[p], &sizes[p], len(s.Pull.OutDeg), len(s.Exchange.Neighbors)
		st.sub = s
		st.rank, st.next, st.keep = take(&fs, m), take(&fs, m), take(&fs, m)
		st.contrib, st.spare[0], st.in = take(&fs, m+1), take(&fs, m+1), take(&ins, nb)
		st.border = take(&is, len(s.Exchange.Border))
		if eager {
			st.spare[1], st.ghost, st.read = take(&fs, m+1), take(&fs, m), take(&is, len(s.Exchange.Node))
		}
		z.mark, z.entry, z.src, z.order = take(&is, nb), take(&is, nb), take(&is, nb), take(&is, nb+1)
	}
	err := checkEach(engine, subs, func(p int) {
		d.parts[p].init(cfg, &sizes[p], &d.maps[p], red[p*nReduces:(p+1)*nReduces])
	})
	if err != nil {
		return nil, err
	}

	// Lay out each partition's emission plan, the entries for its
	// neighbours in partition order, and the sums, partition by
	// partition.
	for p, s := range subs {
		z := &sizes[p]
		for sl, q := range s.Exchange.Neighbors {
			zq := &sizes[q]
			d.maps[q].OutRecords += int64(z.entry[sl])
			z.entry[sl], zq.entries = int32(zq.entries), zq.entries+int(z.entry[sl])
			z.src[sl], zq.srcs = int32(zq.srcs), zq.srcs+int(z.src[sl])
		}
	}
	sums, ints := 0, 0
	for p, s := range subs {
		z := &sizes[p]
		z.base = sums
		sums += len(s.Pull.OutDeg) + z.entries
		ints += 2*z.deferred + 1 + z.groups + z.entries + 1 + z.srcs + len(d.parts[p].read)
	}
	d.sums = make([]float64, sums)
	is = make([]int32, ints)
	for p := range subs {
		st, z, m := &d.parts[p], &sizes[p], len(d.parts[p].rank)
		st.sum, st.out = d.sums[z.base:z.base+m:z.base+m], d.sums[z.base+m:z.base+m+z.entries:z.base+m+z.entries]
		st.def, st.defStart, st.slot = take(&is, z.deferred)[:0], take(&is, z.deferred+1)[:0], take(&is, z.groups)[:0]
		st.emStart, st.emSrc, st.at = take(&is, z.entries+1), take(&is, z.srcs), take(&is, len(st.read))
		st.emStart[z.entries] = int32(z.srcs)
	}
	if err := engine.ForEachTask(k, func(p int) { d.fillPlans(p, sizes) }); err != nil {
		return nil, fmt.Errorf("pagerank: %w", err)
	}

	for p := range d.maps {
		d.maps[p].OutBytes = mapreduce.DefaultRecordSize * d.maps[p].OutRecords
	}
	for i, r := range red {
		t := &d.reduces[i%nReduces]
		t.InRecords += r.in
		t.OutRecords += r.out
	}
	for r := range d.reduces {
		t := &d.reduces[r]
		t.OutBytes, t.Ops = mapreduce.DefaultRecordSize*t.OutRecords, t.InRecords
	}
	return d, nil
}

// reduceCount is what one partition sends one reduce task: in records,
// and out keys, one 16-byte record each. newDriver folds them into the
// task's TaskStats, whose Ops are its in records.
type reduceCount struct{ in, out int64 }

// planSize is what set-up counts of a partition's plans and where it
// places them: its deferred rows and the sums they add; the entries of its emission plan and their sources; where its
// sums start in driver.sums. Per neighbour slot s, entry[s] and src[s] count
// the entries and sources of what that neighbour emits to the
// partition, then, once newDriver has laid out the neighbour's emission
// plan, where they start in it. mark and order are scratch: mark one
// entry a neighbour slot, zero between uses, order one more.
type planSize struct {
	deferred, groups, entries, srcs, base int
	mark, entry, src, order               []int32
}

// init fills the partition's state (state.init) and keep, and counts
// its plans into z, its map task's records and operations into ms
// (all but the records of what it emits to other partitions), and the
// records that reach each reduce task into red. A deferred row has a
// slot for every partition that emits it: those its exchange reads name,
// and its own when it has a local in-edge.
func (st *part) init(cfg Config, z *planSize, ms *mapreduce.TaskStats, red []reduceCount) {
	st.state.init(cfg.Damping)
	s := st.sub
	pl, x := &s.Pull, &s.Exchange
	for r := range st.keep {
		st.keep[r] = 1
	}
	*ms = mapreduce.TaskStats{InRecords: int64(s.NumNodes()), InBytes: s.Bytes}
	i := 0 // the next exchange read; reads run node by node
	for li := range s.Nodes {
		r, node := pl.Pos[li], int32(li)
		in := int64(0)
		if fedLocally(pl, r) {
			in = 1
			ms.OutRecords++
		}
		if i < len(x.Node) && x.Node[i] == node {
			z.deferred++
			st.keep[r] = 0
			for ; i < len(x.Node) && x.Node[i] == node; i++ {
				sl := x.Slot[i]
				z.src[sl]++
				if z.mark[sl] != node+1 {
					z.mark[sl] = node + 1
					z.entry[sl]++
					in++
				}
			}
			z.groups += int(in)
		}
		if in > 0 {
			t := &red[mapreduce.Int64Partition(int64(s.Nodes[li]), len(red))]
			t.in += in
			t.out++
		}
		ms.Ops += int64(s.OutDeg[li])
	}
	clear(z.mark)
	st.pushOps = ms.Ops
}

// fillPlans fills partition p's reduce plan, the entries of its
// neighbours' emission plans that feed it, and the eager formulation's
// gather positions, into the arrays newDriver carved at the sizes init
// counted. A deferred row's sums follow the partitions that emit it in
// ascending order: its own fold's, or a neighbour's entry, which lists
// the positions the row's reads name in read order, the neighbour's own
// traversal order.
func (d *driver) fillPlans(p int, sizes []planSize) {
	st, z := &d.parts[p], &sizes[p]
	pl, x := &st.sub.Pull, &st.sub.Exchange
	src := func(i int) int32 { return d.parts[x.Neighbors[x.Slot[i]]].border[x.Idx[i]] }
	own := int32(len(x.Neighbors))
	owner := func(sl int32) int {
		if sl == own {
			return p
		}
		return x.Neighbors[sl]
	}
	for i := range st.at {
		st.at[i] = src(i)
	}
	st.defStart = append(st.defStart, 0)
	for i := 0; i < len(x.Node); {
		node, start := x.Node[i], i
		for i < len(x.Node) && x.Node[i] == node {
			i++
		}
		r := pl.Pos[node]
		order := z.order[:0]
		for _, sl := range x.Slot[start:i] {
			if z.mark[sl] != node+1 {
				z.mark[sl] = node + 1
				order = append(order, sl)
			}
		}
		if fedLocally(pl, r) {
			order = append(order, own)
		}
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && owner(order[b]) < owner(order[b-1]); b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		for _, sl := range order {
			if sl == own {
				st.slot = append(st.slot, int32(z.base)+r)
				continue
			}
			q, e := x.Neighbors[sl], z.entry[sl]
			z.entry[sl]++
			t := &d.parts[q]
			st.slot = append(st.slot, int32(sizes[q].base+len(t.sum))+e)
			t.emStart[e] = z.src[sl]
			for j := start; j < i; j++ {
				if x.Slot[j] == sl {
					t.emSrc[z.src[sl]] = src(j)
					z.src[sl]++
				}
			}
		}
		st.def = append(st.def, r)
		st.defStart = append(st.defStart, int32(len(st.slot)))
	}
}

// fedLocally reports whether row r of pl names an in-neighbour, that is,
// whether the partition emits to the row's node.
func fedLocally(pl *graph.PullPlan, r int32) bool {
	pad, lane := int32(len(pl.OutDeg)), r%graph.PullRows
	for _, q := range pl.Src[pl.Start[r/graph.PullRows]:pl.Start[r/graph.PullRows+1]] {
		v := q.R0
		switch lane {
		case 1:
			v = q.R1
		case 2:
			v = q.R2
		case 3:
			v = q.R3
		}
		if v != pad {
			return true
		}
	}
	return false
}

// iterate runs one global iteration: every partition's map task, then
// every partition's reduce of its deferred rows, then the pricing of the
// job that the engine would have run for them. It returns the largest
// rank change.
func (d *driver) iterate() (delta float64, cost mapreduce.Cost, err error) {
	if err = d.engine.ForEachTask(len(d.parts), d.mapTask); err != nil {
		return 0, cost, fmt.Errorf("map phase: %w", err)
	}
	if err = d.engine.ForEachTask(len(d.parts), d.reduceTask); err != nil {
		return 0, cost, fmt.Errorf("reduce phase: %w", err)
	}
	for i := range d.parts {
		delta = max(delta, d.parts[i].delta)
	}
	return delta, d.engine.Price(d.maps, d.reduces), nil
}

// mapTask is the gmap of partition p: in the eager formulation its ghost
// sums and local iterations to local convergence; then the fold of its
// emitted contributions over its pull plan, which finishes every row no
// other partition feeds, and its sums for the nodes of other partitions.
func (d *driver) mapTask(p int) {
	st := &d.parts[p]
	ops, sweeps, emit := st.pushOps, int64(0), st.contrib
	if d.eager {
		x := &st.sub.Exchange
		for s, q := range x.Neighbors {
			st.in[s] = d.parts[q].contrib
		}
		st.clearGhosts()
		for i, r := range st.read {
			st.ghost[r] += st.in[x.Slot[i]][st.at[i]]
		}
		sweeps = st.iterateLocally(d.cfg)
		ops += 2 * int64(len(st.sub.LocalDst)) * sweeps
		emit = st.spare[1]
	}
	f := jacobi{cur: emit, old: st.rank, rank: st.next, next: st.spare[0], sum: st.sum, keep: st.keep}
	st.delta = foldJacobi(&st.sub.Pull, &f, 1-d.cfg.Damping, d.cfg.Damping)
	emStart, emSrc := st.emStart, st.emSrc
	for e := range st.out {
		sum := 0.0
		for _, r := range emSrc[emStart[e]:emStart[e+1]] {
			sum += emit[r]
		}
		st.out[e] = sum
	}
	d.maps[p].Ops, d.maps[p].LocalSyncs = ops, sweeps
}

// reduceTask is the greduce of partition p's deferred rows: each one's
// sum starts at 0 and adds its plan's sums in order, and its new rank is
// (1-χ)+χ·sum. The local reduce and global reduce are functionally
// identical, as the paper observes; this one is the global. The
// partition then takes the iteration's ranks and contributions as its
// own.
func (d *driver) reduceTask(p int) {
	st := &d.parts[p]
	base, damping := 1-d.cfg.Damping, d.cfg.Damping
	rank, next, c, od := st.rank, st.next, st.spare[0], st.sub.Pull.OutDeg
	sums, defStart, slot := d.sums, st.defStart, st.slot
	delta := st.delta
	for k, r := range st.def {
		sum := 0.0
		for _, j := range slot[defStart[k]:defStart[k+1]] {
			sum += sums[j]
		}
		n := base + damping*sum
		if x := math.Abs(n - rank[r]); x > delta {
			delta = x
		}
		next[r], c[r] = n, n/od[r]
	}
	st.delta = delta
	st.rank, st.next = st.next, st.rank
	st.contrib, st.spare[0] = st.spare[0], st.contrib
}

// ranks reads every node's rank off its partition.
func (d *driver) ranks() []float64 {
	n := 0
	for i := range d.parts {
		n += d.parts[i].sub.NumNodes()
	}
	ranks := make([]float64, n)
	for i := range d.parts {
		d.parts[i].readRanks(ranks)
	}
	return ranks
}

// iterateLocally runs the eager formulation's local iterations on the
// partition and returns how many: sweeps until the largest rank change
// of one is below Epsilon, or MaxLocalIters sweeps when that is above 0.
// A local iteration is the paper's lmap, every node pushing rank/outdeg
// along its partition-internal edges, and lreduce, each node's frozen
// ghost sum plus those contributions in push order, computed as one
// Jacobi sweep (sweepJacobi) over sub.Pull into next: the sums and the
// order they are added in are the ones lmap/lreduce through
// core.BuildGMap make, so ranks come out bit for bit the same. So does
// the pricing the caller makes of it: one partial synchronization and an
// lmap and an lreduce operation per local edge a sweep. The first sweep
// reads contrib and measures its change from rank; the last one's
// contributions end in spare[1].
func (st *part) iterateLocally(cfg Config) (sweeps int64) {
	c := &st.spare
	w := jacobi{cur: st.contrib, ghost: st.ghost, old: st.rank, rank: st.next}
	for {
		w.next = c[0]
		delta := sweepJacobi(&st.sub.Pull, &w, 1-cfg.Damping, cfg.Damping)
		c[0], c[1] = c[1], c[0]
		w.cur, w.old = c[1], st.next
		sweeps++
		if cfg.MaxLocalIters > 0 && sweeps >= int64(cfg.MaxLocalIters) || delta < cfg.Epsilon {
			break
		}
	}
	return sweeps
}

// jacobi is what a Jacobi pass over a pull plan reads and writes, every
// array by position. cur is the contributions it reads, the pad's +0
// last; old the ranks it measures each row's change from; rank and next
// the new ranks and contributions it writes. A local sweep starts each
// row's sum from ghost; the fold starts it from 0, stores it in sum and
// counts a row's change only where keep is 1.
type jacobi struct {
	cur, ghost, old, rank, next, sum, keep []float64
}

// sweepJacobi is one local Jacobi sweep of w over a pull plan: per
// slice, the four rows' sums, each started from the row's ghost and
// adding its in-neighbours' contributions from w.cur in push order (the
// pads after them add cur's last entry, a +0), then each row's new rank,
// its change from w.old and its new contribution. It returns the largest
// rank change.
//
// A leaf like sweepSlices, and for the same reason: its edge loop keeps
// the four sums, its cursor and cur in registers
// (TestSweepKernelsKeepNoStackTraffic). It takes its arrays behind one
// pointer, as it takes the plan: passed as slices, with ghost read
// before the edge loop, the loop reloads a spilled ghost header on every
// entry (go1.24.0, amd64).
//
//go:noinline
func sweepJacobi(pl *graph.PullPlan, w *jacobi, base, damping float64) (delta float64) {
	cur := w.cur
	for s := 1; s < len(pl.Start); s++ {
		i := 4 * (s - 1)
		g := w.ghost[i : i+4]
		a0, a1, a2, a3 := g[0], g[1], g[2], g[3]
		for _, q := range pl.Src[pl.Start[s-1]:pl.Start[s]] {
			a0 += cur[q.R0]
			a1 += cur[q.R1]
			a2 += cur[q.R2]
			a3 += cur[q.R3]
		}
		o, r, od, c := w.old[i:i+4], w.rank[i:i+4], pl.OutDeg[i:i+4], w.next[i:i+4]
		n0 := base + damping*a0
		n1 := base + damping*a1
		n2 := base + damping*a2
		n3 := base + damping*a3
		if d := math.Abs(n0 - o[0]); d > delta {
			delta = d
		}
		if d := math.Abs(n1 - o[1]); d > delta {
			delta = d
		}
		if d := math.Abs(n2 - o[2]); d > delta {
			delta = d
		}
		if d := math.Abs(n3 - o[3]); d > delta {
			delta = d
		}
		r[0], r[1], r[2], r[3] = n0, n1, n2, n3
		c[0], c[1], c[2], c[3] = n0/od[0], n1/od[1], n2/od[2], n3/od[3]
	}
	return delta
}

// foldJacobi is the map task's fold of f over a pull plan: per slice, the
// four rows' sums from 0 of their in-neighbours' contributions from
// f.cur in push order, each stored in f.sum, then each row's new rank,
// its change from f.old and its new contribution, as a sweep without
// ghosts makes them. That is the reduce's result for a row no other
// partition feeds, which adds nothing to the one sum. A deferred row's
// rank and contribution are overwritten by the reduce, and its change
// counts as 0 (keep 0; a NaN change, which keep cannot zero, never passes
// d > delta). It returns the largest change it counts.
//
// A leaf like sweepJacobi, and for the same reason
// (TestSweepKernelsKeepNoStackTraffic).
//
//go:noinline
func foldJacobi(pl *graph.PullPlan, f *jacobi, base, damping float64) (delta float64) {
	cur := f.cur
	for s := 1; s < len(pl.Start); s++ {
		var a0, a1, a2, a3 float64
		for _, q := range pl.Src[pl.Start[s-1]:pl.Start[s]] {
			a0 += cur[q.R0]
			a1 += cur[q.R1]
			a2 += cur[q.R2]
			a3 += cur[q.R3]
		}
		i := 4 * (s - 1)
		sm, k := f.sum[i:i+4], f.keep[i:i+4]
		sm[0], sm[1], sm[2], sm[3] = a0, a1, a2, a3
		o, r, od, c := f.old[i:i+4], f.rank[i:i+4], pl.OutDeg[i:i+4], f.next[i:i+4]
		n0 := base + damping*a0
		n1 := base + damping*a1
		n2 := base + damping*a2
		n3 := base + damping*a3
		if d := math.Abs(n0-o[0]) * k[0]; d > delta {
			delta = d
		}
		if d := math.Abs(n1-o[1]) * k[1]; d > delta {
			delta = d
		}
		if d := math.Abs(n2-o[2]) * k[2]; d > delta {
			delta = d
		}
		if d := math.Abs(n3-o[3]) * k[3]; d > delta {
			delta = d
		}
		r[0], r[1], r[2], r[3] = n0, n1, n2, n3
		c[0], c[1], c[2], c[3] = n0/od[0], n1/od[1], n2/od[2], n3/od[3]
	}
	return delta
}
