package pagerank

import (
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// TestSweepSlicesSumsInPushOrder: every node's new rank is built on the sum
// of its in-edges' contributions in flat-list order, starting from +0, on
// the shapes a hand-written loop gets wrong first: node counts that leave
// the last slice one, two and three nodes short, nodes without in-edges
// beside a hub wider than all other rows together, a repeated edge. The
// contributions are chosen so that any other order rounds differently, and
// base and damping so that the new rank is the sum itself. The sweep is in
// place, so the model is too: slice by slice in position order, a slice's
// four sums read before any of its rows is written.
func TestSweepSlicesSumsInPushOrder(t *testing.T) {
	contribs := []float64{1e16, 1, -1e16, 3, 1e-3, 0.1, -2, 1e-17, 7}
	for _, c := range []struct {
		name  string
		nodes int
		edges [][2]graph.NodeID
	}{
		{"no edge", 4, nil},
		{"one node", 1, [][2]graph.NodeID{{0, 0}, {0, 0}, {0, 0}}},
		{"five nodes, an edge repeated", 5, [][2]graph.NodeID{{0, 2}, {1, 2}, {2, 2}, {3, 0}, {4, 0}, {4, 0}, {4, 2}}},
		{"six nodes, every edge to one", 6, [][2]graph.NodeID{{0, 3}, {1, 3}, {1, 3}, {2, 3}, {3, 3}, {4, 3}, {5, 3}}},
		{"seven nodes, a hub and a chain", 7, [][2]graph.NodeID{{0, 1}, {0, 6}, {1, 6}, {1, 2}, {2, 6}, {3, 6}, {4, 6}, {5, 6}, {5, 0}, {6, 6}}},
		{"nine nodes, all orders", 9, [][2]graph.NodeID{{0, 8}, {1, 8}, {2, 8}, {2, 4}, {1, 4}, {3, 4}, {8, 4}, {7, 4}, {7, 0}, {6, 0}, {5, 0}, {0, 0}}},
	} {
		g := &graph.Graph{Out: make([][]graph.NodeID, c.nodes)}
		for _, e := range c.edges {
			g.Out[e[0]] = append(g.Out[e[0]], e[1])
		}
		subs, err := graph.BuildSubGraphs(g, make([]int32, c.nodes), 1)
		if err != nil {
			t.Fatal(err)
		}
		s := subs[0]
		pl := s.Pull
		m := len(pl.OutDeg)
		rank, ghost, ones, contrib := make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m+1)
		for li, r := range pl.Pos {
			contrib[r] = contribs[li]
		}
		for i := range ones {
			ones[i] = 1
		}
		// The model: in-neighbours by push order, nodes by position.
		in := make([][]int, c.nodes)
		at := make([]int, m)
		for i := range at {
			at[i] = -1
		}
		for i, adj := range s.OutLocal {
			for _, d := range adj {
				in[d] = append(in[d], i)
			}
			at[pl.Pos[i]] = i
		}
		want, wantDelta := slices.Clone(contribs[:c.nodes]), 0.0
		for r := 0; r < m; r += graph.PullRows {
			var sums [graph.PullRows]float64
			for j := range sums {
				if li := at[r+j]; li >= 0 {
					for _, src := range in[li] {
						sums[j] += want[src]
					}
				}
			}
			for j, sum := range sums {
				if li := at[r+j]; li >= 0 {
					want[li] = sum
					wantDelta = max(wantDelta, math.Abs(sum))
				}
			}
		}
		pl.OutDeg = ones
		delta := sweepSlices(&pl, rank, contrib, ghost, 0, 1)
		got := make([]float64, c.nodes)
		for li, r := range pl.Pos {
			got[li] = rank[r]
		}
		if !sameBits(got, want) || !sameBits(contrib[:m], rank) || contrib[m] != 0 || delta != wantDelta {
			t.Errorf("%s: sums %v (contributions %v, delta %g), in-order sums %v (delta %g)", c.name, got, contrib, delta, want, wantDelta)
		}
	}
}

// TestSweepSlicesReadsEarlierSlicesNew pins what in place means for the
// kernel: position 4, in the second slice, reads position 0's contribution
// as the first slice wrote it in this sweep, while positions 0 and 1, in
// one slice, read each other's from before it. A sweep into a separate
// buffer (Jacobi) gives position 4 10, not 20.
func TestSweepSlicesReadsEarlierSlicesNew(t *testing.T) {
	const pad = 8
	pl := &graph.PullPlan{
		Start:  []int32{0, 1, 2},
		Src:    []graph.PullQuad{{R0: 1, R1: 0, R2: pad, R3: pad}, {R0: 0, R1: pad, R2: pad, R3: pad}},
		OutDeg: []float64{1, 1, 1, 1, 1, 1, 1, 1},
	}
	rank := []float64{10, 20, 0, 0, 0, 0, 0, 0}
	contrib := append(slices.Clone(rank), 0)
	delta := sweepSlices(pl, rank, contrib, make([]float64, pad), 0, 1)
	want := []float64{20, 10, 0, 0, 20, 0, 0, 0}
	if !sameBits(rank, want) || !sameBits(contrib, append(want, 0)) || delta != 20 {
		t.Fatalf("ranks %v, contributions %v, delta %g; want ranks %v, delta 20", rank, contrib, delta, want)
	}
}

// foldBranch is the node-wise half of a sweep as the naive model has it:
// the sum handed in, the absolute value taken by a sign branch.
func foldBranch(rank, sum, ghost, outDeg, next []float64, base, damping float64) (delta float64) {
	for i, old := range rank {
		nr := base + damping*((0+sum[i])+ghost[i])
		d := nr - old
		if d < 0 {
			d = -d
		}
		if d > delta {
			delta = d
		}
		rank[i] = nr
		next[i] = nr / outDeg[i]
	}
	return delta
}

// TestSweepSlicesDeltaMatchesBranch: math.Abs changes nothing a sign branch
// computes, on 10 000 random (sum, ghost, rank) triples and on every triple
// of the values where the two could part: signed zeros, denormals,
// infinities, NaN. Position i's one in-edge comes from itself, so its sum
// is cur[i]. Each triple is swept alone, beside three still rows, so its
// own delta is compared and not only the maximum, then all of them in one
// call.
func TestSweepSlicesDeltaMatchesBranch(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1), math.NaN(), 1}
	var sum, ghost, rank []float64
	for _, a := range special {
		for _, g := range special {
			for _, r := range special {
				sum, ghost, rank = append(sum, a), append(ghost, g), append(rank, r)
			}
		}
	}
	rng := stats.NewRNG(20)
	for len(rank)%4 != 0 || len(rank) < 10000 {
		sum, ghost, rank = append(sum, 4*rng.Float64()), append(ghost, 4*rng.Float64()-1), append(rank, 3*rng.Float64())
	}
	n := len(rank)
	outDeg := make([]float64, n)
	start := make([]int32, n/4+1)
	self := make([]graph.PullQuad, n/4)
	for i := range outDeg {
		outDeg[i] = float64(i % 5) // every fifth node has no out-edge
	}
	for s := range self {
		r := int32(4 * s)
		self[s] = graph.PullQuad{R0: r, R1: r + 1, R2: r + 2, R3: r + 3}
		start[s+1] = int32(s + 1)
	}
	const base, damping = 0.15, 0.85
	clone := func(s []float64, extra ...float64) []float64 { return append(append([]float64(nil), s...), extra...) }
	check := func(what string, rank, sum, ghost, outDeg []float64, start []int32, src []graph.PullQuad) {
		t.Helper()
		r1, c1 := clone(rank), clone(sum, 0)
		r2, n2 := clone(rank), make([]float64, len(rank)+1)
		got := sweepSlices(&graph.PullPlan{Start: start, Src: src, OutDeg: outDeg}, r1, c1, ghost, base, damping)
		want := foldBranch(r2, sum, ghost, outDeg, n2, base, damping)
		switch {
		case math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%s: delta %g, with the branch %g", what, got, want)
		case !sameBits(r1, r2) || !sameBits(c1, n2):
			t.Fatalf("%s: rank or contribution differ from the branch loop's", what)
		}
	}
	for i := range rank {
		// Rows 1 to 3 read the pad and sit at the rank that gives them.
		check(fmt.Sprintf("triple %d (sum %g ghost %g rank %g)", i, sum[i], ghost[i], rank[i]),
			[]float64{rank[i], base, base, base}, []float64{sum[i], 0, 0, 0}, []float64{ghost[i], 0, 0, 0},
			[]float64{outDeg[i], 1, 1, 1}, []int32{0, 1}, []graph.PullQuad{{R0: 0, R1: 4, R2: 4, R3: 4}})
	}
	check("all triples", rank, sum, ghost, outDeg, start, self)
	k := len(special) * len(special) * len(special) / 4 * 4
	check("the random triples", rank[k:], sum[k:], ghost[k:], outDeg[k:], start[:len(start)-k/4], self[:len(self)-k/4]) // a finite running maximum

	// A node without out-edges gets +Inf; the hand-built graph of
	// TestStepMatchesOracle has one, and no edge or border entry reads it.
	contrib := make([]float64, 5)
	sweepSlices(&graph.PullPlan{Start: []int32{0, 0}, OutDeg: []float64{0, 1, 1, 1}}, []float64{1, 1, 1, 1}, contrib, make([]float64, 4), base, damping)
	if !math.IsInf(contrib[0], 1) {
		t.Fatalf("contribution of a node without out-edges %g, want +Inf", contrib[0])
	}
}

// TestSweepKernelsKeepNoStackTraffic holds what the kernels are leaves
// for: each one's compiled edge loop touches no stack slot. It builds the
// package's test binary as go test -c does, disassembles it, takes the
// innermost loop as the shortest span from the target of a backward
// conditional jump to that jump, and fails on any SP-relative operand
// inside it. A kernel that was inlined away has no symbol and fails too.
// (The same loop over [4]int32 entries copies each entry through the
// stack; handed the plan's three arrays instead of the plan, it reloads
// two spilled slice headers every iteration — go1.24.0, amd64.)
func TestSweepKernelsKeepNoStackTraffic(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("reads amd64 disassembly")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" || s.Key == "-gcflags" {
				t.Skipf("built with %s=%s; the check is about the optimised build", s.Key, s.Value)
			}
		}
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	// Not os.Executable(): go test links the binary it runs without a
	// symbol table.
	exe := filepath.Join(t.TempDir(), "pagerank.test")
	if out, err := exec.Command(goTool, "test", "-c", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	for _, kernel := range []string{"sweepSlices", "sweepJacobi"} {
		out, err := exec.Command(goTool, "tool", "objdump", "-s", `^repro/internal/pagerank\.`+kernel+`$`, exe).CombinedOutput()
		if err != nil {
			t.Fatalf("go tool objdump: %v\n%s", err, out)
		}
		loop, err := innerLoop(string(out))
		if err != nil {
			t.Fatalf("%s: %v\n%s", kernel, err, out)
		}
		for _, ins := range loop {
			if strings.Contains(ins, "(SP)") {
				t.Errorf("%s: the loop touches the stack: %s", kernel, ins)
			}
		}
		t.Logf("%s: %d instructions in the loop", kernel, len(loop))
	}
}

// innerLoop returns the instructions, as "0xaddr TEXT", of the shortest
// span of an objdump listing that a backward conditional jump closes.
func innerLoop(listing string) ([]string, error) {
	type instr struct {
		addr uint64
		text string
	}
	var code []instr
	for _, line := range strings.Split(listing, "\n") {
		// "  file.go:line	0xaddr	hexbytes	MNEMONIC operands"
		f := strings.FieldsFunc(line, func(r rune) bool { return r == '\t' })
		if len(f) < 4 || !strings.HasPrefix(f[1], "0x") {
			continue
		}
		addr, err := strconv.ParseUint(f[1], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("address in %q: %v", line, err)
		}
		code = append(code, instr{addr, strings.TrimSpace(f[3])})
	}
	if len(code) == 0 {
		return nil, fmt.Errorf("no such symbol in the binary (inlined?)")
	}
	head, tail := uint64(0), -1
	for i, ins := range code {
		op, target, ok := strings.Cut(ins.text, " ")
		if !ok || !strings.HasPrefix(op, "J") || op == "JMP" {
			continue
		}
		if to, err := strconv.ParseUint(target, 0, 64); err == nil && to < ins.addr && (tail < 0 || ins.addr-to < code[tail].addr-head) {
			head, tail = to, i
		}
	}
	if tail < 0 {
		return nil, fmt.Errorf("no backward conditional jump: no loop")
	}
	var loop []string
	for _, ins := range code[:tail+1] {
		if ins.addr >= head {
			loop = append(loop, fmt.Sprintf("%#x %s", ins.addr, ins.text))
		}
	}
	return loop, nil
}
