package harness

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// experimentGoldens holds, per experiment name, the FNV-64a of the bytes
// `asyncmr <name>` prints on a testSuite(). Recorded on the commit
// before the workload table and the registry existed (through the
// per-figure functions they replaced), so the test is the byte-identity
// claim of that refactor, and holds every deterministic experiment's
// output from then on.
var experimentGoldens = map[string]uint64{
	"table1":        0xeb22995be338a9f2,
	"table2":        0xb8afd33b1c4e46e2,
	"figure2":       0x7364b039fb43b957,
	"figure4":       0x1e858dc550e8836d,
	"figure3":       0x26878486509e622c,
	"figure5":       0x66e2a9f776ab7acf,
	"figure6":       0x93f14c5669d745a1,
	"figure7":       0x9ee783d5c01e99e8,
	"figure8":       0xd895865566813e19,
	"figure9":       0xc10f87ad2c3a5815,
	"asyncA":        0xf1643a636334cd8a,
	"asyncB":        0x7f528b1bd9a41803,
	"scale":         0x4bd8ac6cd1ed5c1c,
	"staleness":     0x20ae97291b31b619,
	"stalenessx":    0x3af8ba1fd47e64ba,
	"stalenessclue": 0x8424caa6c555bae2,
	"adaptive":      0xce144b289b198b6d,
	"adaptiveclue":  0xa3e826b9fdc2938d,
	"recovery":      0x2c4b48da4523e42f,
}

// TestExperimentOutputGoldens renders every registry entry not marked
// wall-clock and compares its bytes with the committed hash.
func TestExperimentOutputGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	checked := 0
	for _, e := range Experiments() {
		if e.WallClock {
			continue
		}
		r := ran(t, e.Names[0])
		for i, name := range e.Names {
			var buf bytes.Buffer
			buf.Write(r.text)
			figs := r.figs
			if len(e.Names) > 1 {
				figs = figs[i : i+1]
			}
			for _, f := range figs {
				f.Render(&buf)
			}
			want, ok := experimentGoldens[name]
			if !ok {
				t.Errorf("%s is deterministic and has no golden; record 0x%016x", name, fnv64(buf.Bytes()))
				continue
			}
			if got := fnv64(buf.Bytes()); got != want {
				t.Errorf("%s renders bytes hashing to 0x%016x, golden 0x%016x:\n%s", name, got, want, buf.Bytes())
			}
			checked++
		}
	}
	if checked != len(experimentGoldens) {
		t.Errorf("checked %d experiments against %d goldens: a golden names no deterministic experiment", checked, len(experimentGoldens))
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
