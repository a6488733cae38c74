// Quickstart: the two layers of the library in one file.
//
// Part 1 runs a classic word-count on the simulated Hadoop-0.20-style
// engine (internal/mapreduce) to show the base API: jobs, splits,
// Emit, combiners, simulated cost accounting.
//
// Part 2 converts an iterative computation to the paper's partial
// synchronization API (internal/core): lmap/lreduce compose into a gmap
// that iterates locally between global synchronizations, and
// core.Iterate runs global iterations to convergence. The same computation is run
// with and without eager local iterations to show the global
// synchronization count drop.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
)

func main() {
	wordCount()
	partialSync()
}

// wordCount runs one MapReduce job over text splits.
func wordCount() {
	fmt.Println("== Part 1: word count on the simulated 8-node EC2 cluster ==")
	engine := mapreduce.NewEngine(cluster.New(cluster.EC2LargeCluster()))

	lines := []string{
		"partial synchronization beats global synchronization",
		"global synchronization costs a job barrier",
		"local iterations are eager and cheap",
	}
	splits := make([]mapreduce.Split[string], len(lines))
	for i, l := range lines {
		splits[i] = mapreduce.Split[string]{
			Data: l, Records: int64(len(strings.Fields(l))), Bytes: int64(len(l)),
		}
	}

	job := &mapreduce.Job[string, string, int]{
		Name: "wordcount",
		Map: func(ctx *mapreduce.TaskContext[string, int], split mapreduce.Split[string]) {
			for _, w := range strings.Fields(split.Data) {
				ctx.Emit(w, 1)
			}
		},
		// A combiner folds each map task's counts before the shuffle.
		Combine: func(key string, values []int) []int {
			sum := 0
			for _, v := range values {
				sum += v
			}
			return []int{sum}
		},
		Reduce: func(ctx *mapreduce.TaskContext[string, int], key string, values []int) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			ctx.Emit(key, sum)
		},
	}

	res, err := mapreduce.Run(engine, job, splits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %q: %d map tasks, %d reduce tasks, %d shuffle records, simulated %v\n",
		job.Name, len(res.Maps), len(res.Reduces), res.ShuffleRecords, res.Duration)
	for _, kv := range res.Output {
		if kv.Value > 1 {
			fmt.Printf("  %-16s %d\n", kv.Key, kv.Value)
		}
	}
	fmt.Println()
}

// cells is a toy iterative workload: every cell must count up to a
// target; a cell can only advance when visited, one step per local
// iteration — a stand-in for any fixed-point computation.
type cells struct {
	v      []int
	target int
}

func partialSync() {
	fmt.Println("== Part 2: the paper's partial synchronization API ==")

	run := func(maxLocal int, label string) {
		engine := mapreduce.NewEngine(cluster.New(cluster.EC2LargeCluster()))
		// Four partitions of 8 cells each.
		splits := make([]mapreduce.Split[*cells], 4)
		for i := range splits {
			splits[i] = mapreduce.Split[*cells]{
				Data: &cells{v: make([]int, 8), target: 10}, Records: 8,
			}
		}

		// lmap/lreduce compose into a gmap per the paper's Figure 1.
		spec := &core.LocalSpec[*cells, int, int64, int]{
			Elements: func(p *cells) []int {
				idx := make([]int, len(p.v))
				for i := range idx {
					idx[i] = i
				}
				return idx
			},
			LMap: func(lc *core.LocalContext[int64, int], p *cells, i int) {
				if p.v[i] < p.target {
					lc.EmitLocalIntermediate(int64(i), 1)
				}
				lc.Charge(1)
			},
			LReduce: func(lc *core.LocalContext[int64, int], p *cells, key int64, values []int) {
				sum := 0
				for _, v := range values {
					sum += v
				}
				lc.EmitLocal(key, p.v[key]+sum)
			},
			Apply: func(p *cells, lc *core.LocalContext[int64, int]) {
				lc.State(func(k int64, v int) { p.v[k] = v })
			},
			Converged: func(p *cells, lc *core.LocalContext[int64, int]) bool {
				for _, c := range p.v {
					if c < p.target {
						return false
					}
				}
				return true
			},
			MaxLocalIters: maxLocal,
		}

		job := &mapreduce.Job[*cells, int64, int]{
			Name:      "counting-" + label,
			Map:       core.BuildGMap(spec),
			Partition: mapreduce.Int64Partition,
			Reduce: func(ctx *mapreduce.TaskContext[int64, int], key int64, values []int) {
				for _, v := range values {
					ctx.Emit(key, v)
				}
			},
		}

		// core.Iterate runs global iterations, each one job, until the
		// convergence check a Hadoop job driver makes between chained jobs
		// holds: every cell of every partition at its target.
		stats, err := core.Iterate(func(int) (mapreduce.Cost, bool, error) {
			res, err := mapreduce.Run(engine, job, splits)
			if err != nil {
				return mapreduce.Cost{}, false, err
			}
			for _, sp := range splits {
				for _, c := range sp.Data.v {
					if c < sp.Data.target {
						return res.Cost, false, nil
					}
				}
			}
			return res.Cost, true, nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s global syncs=%2d  local syncs=%3d  simulated=%v\n",
			label, stats.GlobalIterations, stats.LocalIterations, stats.Duration)
	}

	// One local sweep per global barrier = the general formulation;
	// local iterations to convergence = the paper's eager formulation.
	run(1, "general (1 local sweep)")
	run(0, "eager (local convergence)")
	fmt.Println("\nSame result; the eager run replaced expensive global synchronizations")
	fmt.Println("with cheap in-memory partial synchronizations (the paper's core idea).")
}
