package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/async"
	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workpool"
)

// The scheduler's five phases, in loop order.
const (
	phaseAdmit = iota
	phaseGate
	phaseExecute
	phasePublish
	phaseAdvance
	numPhases
)

var phaseNames = [numPhases]string{"admit", "gate", "execute", "publish", "advance"}

// phaseTimes accumulates, over the runs of one traced iteration, the
// busy time and call count of each scheduler phase and the host seconds
// of building and finishing the scheduler.
type phaseTimes struct {
	busy         [numPhases]time.Duration
	calls        [numPhases]int64
	newScheduler float64
	finish       float64
}

// drivePhases is async.Drive with a clock read between phases: the same
// loop over the public Scheduler, so it must return exactly the RunStats
// async.Run returns. Each clock read closes one phase and opens the
// next, and its own cost lands in the phases, which is why end-to-end
// numbers never come from this loop. One span per phase per step would
// measure the recorder, so the phases are recorded as one aggregated
// span each.
//
//async:sched-root
func drivePhases(tr *recorder, ph *phaseTimes, c *cluster.Cluster, w *noopWorkload, opt async.Options) (*async.RunStats, error) {
	id := tr.begin("async.NewScheduler")
	s, err := async.NewScheduler[[]float64](c, w, opt)
	ph.newScheduler += tr.end(id)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	var busy [numPhases]time.Duration
	var calls [numPhases]int64
	loop := tr.begin("async.Drive")
	mark := time.Now()
	lap := func(phase int) {
		now := time.Now()
		busy[phase] += now.Sub(mark)
		calls[phase]++
		mark = now
	}
	for {
		p, ok := s.Admit()
		lap(phaseAdmit)
		if !ok {
			break
		}
		pass := s.Gate(p)
		lap(phaseGate)
		if !pass {
			continue
		}
		out, err := s.Execute(p)
		lap(phaseExecute)
		if err == nil {
			err = s.Publish(p, out)
			lap(phasePublish)
		}
		if err != nil {
			tr.end(loop)
			return nil, err
		}
		s.Advance(p, out)
		lap(phaseAdvance)
	}
	var offset time.Duration
	for p, name := range phaseNames {
		tr.aggregate("async."+name, calls[p], busy[p], offset)
		offset += busy[p]
		ph.busy[p] += busy[p]
		ph.calls[p] += calls[p]
	}
	tr.end(loop)

	id = tr.begin("async.Finish")
	st, err := s.Finish()
	ph.finish += tr.end(id)
	return st, err
}

// replayRepeats is how often each standalone replay is timed; the
// fastest repeat is reported.
const replayRepeats = 5

// replay times f, which performs n operations, replayRepeats times
// under one span and reports nanoseconds per operation.
func replay(tr *recorder, span string, n int, f func()) float64 {
	id := tr.begin(span)
	defer tr.end(id)
	per := make([]float64, replayRepeats)
	for i := range per {
		t0 := time.Now()
		f()
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return quiet(per)
}

// replayStore replays the store traffic of one sched_noop run with
// nothing around it: every partition publishes its scripted versions in
// turn, then every partition reads its four neighbors once per step at
// an advancing time through a cursor, as the scheduler does.
func replayStore(tr *recorder, o obs, w *noopWorkload) error {
	at := func(v int) simtime.Duration { return simtime.Duration(v) * simtime.Millisecond }
	var store *async.Store[[]float64]
	var failed bool
	publish := func() {
		store = async.NewStore[[]float64](w.parts)
		for v := 0; v <= w.steps; v++ {
			for p := 0; p < w.parts; p++ {
				if store.Publish(p, v, at(v), w.row(p, v)) != nil {
					failed = true
				}
			}
		}
	}
	o.add("async.store_publish_ns", replay(tr, "async.Store.Publish", w.parts*(w.steps+1), publish))

	cursors := make([]int, w.parts*4)
	read := func() {
		for i := range cursors {
			cursors[i] = 0
		}
		for v := 1; v <= w.steps; v++ {
			for p := 0; p < w.parts; p++ {
				for j, q := range w.nbrs[p] {
					snap, idx, ok := store.ReadAtFrom(q, at(v), cursors[p*4+j])
					if !ok || snap.Version != v {
						failed = true
					}
					cursors[p*4+j] = idx
				}
			}
		}
	}
	o.add("async.store_read_ns", replay(tr, "async.Store.ReadAtFrom", w.parts*w.steps*4, read))
	if failed {
		return fmt.Errorf("store replay read back a version it did not publish")
	}
	return nil
}

// replayHeap replays n pop-then-push pairs on an event heap holding one
// event per partition, the steady state of a DES run.
func replayHeap(tr *recorder, parts, n int) float64 {
	return replay(tr, "simtime.EventHeap", n, func() { churnHeap(parts, n) })
}

//async:sched-root
func churnHeap(parts, n int) {
	var h simtime.EventHeap
	for p := 0; p < parts; p++ {
		h.Push(simtime.Duration(p)*simtime.Microsecond, p)
	}
	for i := 0; i < n; i++ {
		ev := h.Pop()
		h.Push(ev.At+simtime.Duration(1+ev.ID%7)*simtime.Millisecond, ev.ID)
	}
}

var pricingSink simtime.Duration

// replayPricing replays the cost-model calls one publishing step makes:
// compute and push cost, one straggler draw, one failure draw.
func replayPricing(tr *recorder, cfg *cluster.Config, n int) float64 {
	return replay(tr, "cluster.pricing", n, func() {
		c := cluster.New(cfg)
		var total simtime.Duration
		for i := 0; i < n; i++ {
			d := c.ComputeCost(noopOps) + c.AsyncPushCost(payloadBytes)
			d = simtime.Duration(float64(d) * c.StragglerFactor())
			if attempts, wasted := c.TaskAttempts(); attempts > 1 {
				d += simtime.Duration(wasted * float64(d))
			}
			total += d
		}
		pricingSink = total
	})
}

// replayPoolDispatch pushes n no-op items through a work-stealing pool
// of GOMAXPROCS workers and waits for them to drain.
func replayPoolDispatch(tr *recorder, n int) (float64, error) {
	var ran atomic.Int64
	ns := replay(tr, "workpool.dispatch", n, func() {
		pool := workpool.New(runtime.GOMAXPROCS(0), func(int, int) { ran.Add(1) })
		for i := 0; i < n; i++ {
			pool.Submit(i)
		}
		pool.Close()
	})
	if got, want := ran.Load(), int64(n*replayRepeats); got != want {
		return 0, fmt.Errorf("pool ran %d of %d items", got, want)
	}
	return ns, nil
}
