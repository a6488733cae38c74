package main

import (
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
