package main

import (
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/lint"
)

// TestAsyncContracts type-checks every package of the module and fails
// on each violation of the //async: contracts (internal/lint's package
// doc lists them).
func TestAsyncContracts(t *testing.T) {
	start := time.Now()
	fset, pkgs, err := lint.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Check(fset, pkgs) {
		t.Error(d)
	}
	t.Logf("%d packages checked in %v", len(pkgs), time.Since(start).Round(time.Millisecond))
}

// TestNoNetworkStack lists the packages the benchmark and the CLI link
// and fails on any network package. Linking net/netip costs allocations
// in every GC cycle: 100 forced cycles at GOMAXPROCS 1 took 201
// allocations with it linked and none without, which is what drifted
// bench's allocs counts (ROADMAP 10(e)).
func TestNoNetworkStack(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./bench", "./cmd/asyncmr").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "net", "net/netip", "unique":
			t.Errorf("./bench or ./cmd/asyncmr links %s: with net/netip linked every GC cycle allocates about two objects, the allocs drift of ROADMAP 10(e); `go list -deps` shows which import pulls it in", pkg)
		}
	}
}
