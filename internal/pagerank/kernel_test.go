package pagerank

import (
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestScatterEdgesOrder: every destination's sum is its old value plus the
// contributions of its in-edges in list order, on the list shapes a
// hand-written loop gets wrong first. The values are chosen so that any
// other order rounds differently.
func TestScatterEdgesOrder(t *testing.T) {
	contrib := []float64{1e16, 1, -1e16, 3, 1e-3, 0.1}
	for _, c := range []struct {
		name     string
		nodes    int
		src, dst []int32
	}{
		{"empty list", 4, nil, nil},
		{"one node", 1, []int32{0, 0, 0}, []int32{0, 0, 0}},
		{"destination repeated on consecutive edges", 6, []int32{0, 1, 2, 3, 4, 5, 5}, []int32{2, 2, 2, 0, 0, 5, 2}},
		{"every edge to one destination", 6, []int32{0, 1, 2, 3, 4, 5, 1, 0}, []int32{3, 3, 3, 3, 3, 3, 3, 3}},
	} {
		acc := make([]float64, c.nodes)
		want := make([]float64, c.nodes)
		for d := range want {
			acc[d] = 0.5 * float64(d)
			want[d] = acc[d]
			for k := range c.dst {
				if int(c.dst[k]) == d {
					want[d] += contrib[c.src[k]]
				}
			}
		}
		scatterEdges(acc, contrib, c.src, c.dst)
		if !sameBits(acc, want) {
			t.Errorf("%s: sums %v, in-order sums %v", c.name, acc, want)
		}
	}
}

// foldNodesBranch is foldNodes with the absolute value taken by the sign
// branch the loop had while it was part of Step.
func foldNodesBranch(rank, acc, ghost, contrib []float64, outDeg []int32, base, damping float64) (delta float64) {
	for i, old := range rank {
		nr := base + damping*(acc[i]+ghost[i])
		acc[i] = 0
		d := nr - old
		if d < 0 {
			d = -d
		}
		if d > delta {
			delta = d
		}
		rank[i] = nr
		contrib[i] = nr / float64(outDeg[i])
	}
	return delta
}

// TestFoldNodesDeltaMatchesBranch: math.Abs changes nothing the branch
// computed, on 10 000 random (acc, ghost, rank) triples and on every triple
// of the values where the two could part: signed zeros, denormals,
// infinities, NaN. Each triple is folded alone, so its own delta is
// compared and not only the maximum, then all of them in one call.
func TestFoldNodesDeltaMatchesBranch(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1), math.NaN(), 1}
	var acc, ghost, rank []float64
	for _, a := range special {
		for _, g := range special {
			for _, r := range special {
				acc, ghost, rank = append(acc, a), append(ghost, g), append(rank, r)
			}
		}
	}
	rng := stats.NewRNG(20)
	for i := 0; i < 10000; i++ {
		acc, ghost, rank = append(acc, 4*rng.Float64()), append(ghost, 4*rng.Float64()-1), append(rank, 3*rng.Float64())
	}
	outDeg := make([]int32, len(rank))
	for i := range outDeg {
		outDeg[i] = int32(i % 5) // every fifth node has no out-edge
	}
	const base, damping = 0.15, 0.85
	check := func(lo, hi int) {
		t.Helper()
		clone := func(s []float64) []float64 { return append([]float64(nil), s[lo:hi]...) }
		r1, a1, c1 := clone(rank), clone(acc), make([]float64, hi-lo)
		r2, a2, c2 := clone(rank), clone(acc), make([]float64, hi-lo)
		got := foldNodes(r1, a1, ghost[lo:hi], c1, outDeg[lo:hi], base, damping)
		want := foldNodesBranch(r2, a2, ghost[lo:hi], c2, outDeg[lo:hi], base, damping)
		switch {
		case math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("triples [%d,%d): delta %g, with the branch %g (acc %g ghost %g rank %g)", lo, hi, got, want, acc[lo], ghost[lo], rank[lo])
		case !sameBits(r1, r2) || !sameBits(c1, c2) || !sameBits(a1, a2):
			t.Fatalf("triples [%d,%d): rank, contrib or acc differ from the branch loop's", lo, hi)
		}
	}
	for i := range rank {
		check(i, i+1)
	}
	check(0, len(rank))
	check(len(special)*len(special)*len(special), len(rank)) // the random triples: a finite running maximum

	// A node without out-edges gets +Inf; the hand-built graph of
	// TestStepMatchesOracle has one, and no edge or border entry reads it.
	contrib := []float64{0}
	foldNodes([]float64{1}, []float64{2}, []float64{0}, contrib, []int32{0}, base, damping)
	if !math.IsInf(contrib[0], 1) {
		t.Fatalf("contribution of a node without out-edges %g, want +Inf", contrib[0])
	}
}

// TestSweepKernelsKeepNoStackTraffic holds what the kernels exist for: the
// compiled loop of each touches no stack slot. It builds the package's
// test binary as go test -c does, disassembles it, takes each kernel's loop
// as the span from the target of the function's last backward conditional
// jump to that jump, and fails on any SP-relative operand inside it. A
// kernel that was inlined away has no symbol and fails too. While both
// loops were written out in Step (go1.24.0, amd64) the same span held five
// such operands in the edge loop — the store of k+1, its reload at the loop
// head and reloads of three values the loop never uses — and five in the
// node loop, Damping among them.
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
	for _, kernel := range []string{"scatterEdges", "foldNodes"} {
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

// innerLoop returns the instructions, as "0xaddr TEXT", of the span of an
// objdump listing that the last backward conditional jump closes.
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
		if to, err := strconv.ParseUint(target, 0, 64); err == nil && to < ins.addr {
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
