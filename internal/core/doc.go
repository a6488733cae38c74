// Package core implements the paper's primary contribution: an API for
// partial synchronizations and eager scheduling in iterative MapReduce
// ("Asynchronous Algorithms in MapReduce", Kambatla et al., CLUSTER 2010,
// §IV).
//
// The API is a two-level scheme. The outer level is regular ("global")
// MapReduce: gmap and greduce separated by an expensive global
// synchronization (the shuffle plus a DFS round-trip plus job scheduling —
// tens of simulated seconds on the 8-node EC2 testbed). The inner level
// runs inside each gmap task: local map (lmap) and local reduce (lreduce)
// iterations over the task's partition, separated only by cheap in-memory
// partial synchronizations, eagerly scheduled without waiting for any
// other partition.
//
// Mapping from the paper's API to this package:
//
//	paper                      this package
//	-----                      ------------
//	gmap(xs)                   BuildGMap(spec) -> mapreduce.MapFunc
//	greduce                    the Job's Reduce function
//	lmap                       LocalSpec.LMap
//	lreduce                    LocalSpec.LReduce
//	EmitIntermediate()         mapreduce.TaskContext.Emit (inside gmap)
//	Emit()                     mapreduce.TaskContext.Emit (inside greduce)
//	EmitLocalIntermediate()    LocalContext.EmitLocalIntermediate
//	EmitLocal()                LocalContext.EmitLocal
//	local convergence check    LocalSpec.Converged / MaxLocalIters
//
// BuildGMap reproduces the paper's Figure 1 construction:
//
//	gmap(xs : X list) {
//	    while (no-local-convergence-intimated) {
//	        for each element x in xs { lmap(x) }   // emits lkey, lval
//	        lreduce()                              // over lmap output
//	    }
//	    for each value in lreduce-output { EmitIntermediate(key, value) }
//	}
//
// Iterate is the loop every synchronous run goes round: global
// iterations until one reports global convergence, each iteration's job
// price (mapreduce.Cost) summed into RunStats (simulated duration, global
// iterations, local synchronizations — one per local iteration —
// shuffled records and replayed task attempts) that the experiment
// harness turns into the paper's figures. The paper's workloads compute
// what their jobs' tasks would record and price it with
// mapreduce.Engine.Price; examples/quickstart and the tests' oracles run
// the job through mapreduce.Run.
package core
