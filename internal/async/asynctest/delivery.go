package asynctest

import (
	"fmt"
	"testing"

	"repro/internal/async"
	"repro/internal/cluster"
)

// QuietCluster is the EC2 preset with neither transient failures nor
// stragglers: the cluster the workload packages' async tests run on.
func QuietCluster() *cluster.Cluster {
	cfg := cluster.EC2LargeCluster()
	cfg.FailureProb = 0
	cfg.StragglerJitter = 0
	return cluster.New(cfg)
}

// Schedule is a delivery schedule for Delayed. Delay(p, i, step) is how
// many of its own steps partition p lags, at its step step, behind the
// runtime's delivery from its i-th neighbor (position i of Neighbors(p)).
type Schedule struct {
	Name  string
	Delay func(p, i, step int) int
}

// Schedules are the delivery schedules every workload's fixed point must
// survive: in order; a random delay of 0 to 8 steps per read, which both
// reorders and repeats versions; a fixed delay of 3; and the first
// neighbor starved for the reader's first 50 steps. Each delay is
// bounded in the reader's steps, so every version is eventually read and
// old versions eventually stop being read: El-Baz's two conditions for a
// totally asynchronous iteration.
func Schedules() []Schedule {
	return []Schedule{
		{"in-order", func(int, int, int) int { return 0 }},
		{"random", func(p, i, step int) int {
			h := uint64(p)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9 ^ uint64(step)*0x94d049bb133111eb
			h ^= h >> 31
			h *= 0xd6e8feb86659fd93
			return int((h ^ h>>32) % 9)
		}},
		{"fixed-3", func(int, int, int) int { return 3 }},
		{"starve-first", func(p, i, step int) int {
			if i == 0 && step < 50 {
				return step
			}
			return 0
		}},
	}
}

// Delayed wraps a workload so that each Step reads, from each neighbor,
// the newest version the runtime delivered at least Delay of the
// reader's own steps ago (the oldest delivered version if none is that
// old). The runtime, its gate and its accounting are untouched: a step
// handed anything older than what the runtime read reports itself not
// quiescent, so the partition steps again and reads on. Step indices
// count the reader's steps only on a run without crashes, and Delayed
// exposes none of the optional interfaces: run it on the DES, without
// a fault model, recorder or sampler.
type Delayed[D any] struct {
	async.Workload[D]
	delay func(p, i, step int) int
	seen  [][][]arrival[D] // per partition and neighbor, in delivery order
	in    [][]async.Snapshot[D]
}

// arrival is one delivered version and the reader's step it came at.
type arrival[D any] struct {
	snap async.Snapshot[D]
	step int
}

// Delay wraps w under the schedule delay.
func Delay[D any](w async.Workload[D], delay func(p, i, step int) int) *Delayed[D] {
	d := &Delayed[D]{Workload: w, delay: delay,
		seen: make([][][]arrival[D], w.Parts()), in: make([][]async.Snapshot[D], w.Parts())}
	for p := range d.seen {
		d.seen[p] = make([][]arrival[D], len(w.Neighbors(p)))
		d.in[p] = make([]async.Snapshot[D], len(w.Neighbors(p)))
	}
	return d
}

func (d *Delayed[D]) Step(p, step int, inputs []async.Snapshot[D]) async.StepOutcome[D] {
	stale := false
	for i, s := range inputs {
		h := d.seen[p][i]
		if len(h) == 0 || s.Version > h[len(h)-1].snap.Version {
			h = append(h, arrival[D]{s, step})
			d.seen[p][i] = h
		}
		k, cut := len(h)-1, step-d.delay(p, i, step)
		for k > 0 && h[k].step > cut {
			k--
		}
		d.in[p][i] = h[k].snap
		stale = stale || h[k].snap.Version < s.Version
	}
	out := d.Workload.Step(p, step, d.in[p])
	if stale {
		out.Quiescent = false
	}
	return out
}

// DeliveryRow is one cell of a workload's
// TestAsyncFixedPointUnderAnyDelivery table: a static bound or a policy,
// a schedule, and the workload's local sweep cap.
type DeliveryRow struct {
	Opt           async.Options
	Schedule      Schedule
	MaxLocalIters int
}

func (r DeliveryRow) String() string {
	bound := fmt.Sprintf("S=%d", r.Opt.Staleness)
	switch {
	case r.Opt.Adapt != nil:
		bound = r.Opt.Adapt.String()
	case r.Opt.Staleness < 0:
		bound = "S=inf"
	}
	return fmt.Sprintf("%s/%s/iters=%d", bound, r.Schedule.Name, r.MaxLocalIters)
}

// DeliveryRows crosses every schedule with the bounds 0, 2 and
// unbounded and each of AdaptivePolicies at the sweep cap iters[0], and
// with S = 2 at each further cap in iters.
func DeliveryRows(iters ...int) []DeliveryRow {
	opts := []async.Options{{Staleness: 0}, {Staleness: 2}, {Staleness: async.Unbounded}}
	for _, pol := range AdaptivePolicies() {
		opts = append(opts, async.Options{Adapt: pol})
	}
	var rows []DeliveryRow
	for _, s := range Schedules() {
		for _, opt := range opts {
			rows = append(rows, DeliveryRow{opt, s, iters[0]})
		}
		for _, it := range iters[1:] {
			rows = append(rows, DeliveryRow{async.Options{Staleness: 2}, s, it})
		}
	}
	return rows
}

// RunDelayed runs w on the DES under row's bound or policy with its
// reads delayed by row's schedule, on QuietCluster, and fails t unless
// the run converged with no read leading past the bound in force (under
// a policy, the largest bound it set).
func RunDelayed[D any](t *testing.T, w async.Workload[D], row DeliveryRow) *async.RunStats {
	t.Helper()
	st, err := async.Run(QuietCluster(), Delay(w, row.Schedule.Delay), row.Opt)
	if err != nil {
		t.Fatal(err)
	}
	bound := row.Opt.Staleness
	if row.Opt.Adapt != nil {
		bound = st.StalenessMax
	}
	if !st.Converged || bound >= 0 && st.MaxLead > bound {
		t.Fatalf("converged %v after %d steps, lead %d under the bound %d", st.Converged, st.Steps, st.MaxLead, bound)
	}
	return st
}
