#!/usr/bin/env sh
# lint.sh — static-analysis gate: gofmt over every Go file outside
# vendor/, go vet, and the asynclint suite (internal/lint via
# cmd/asynclint), which mechanically enforces the async runtime's
# determinism and concurrency contracts:
#
#   determinism  no wall clock / global rand / map-order iteration in
#                //async:deterministic-marked engine packages
#   schedonly    //async:sched-only functions reachable only from the
#                scheduling loop (//async:sched-root entry points)
#
# Contracts the types already state are not re-checked: lock-free
# fields are typed atomics (go vet's copylocks catches copies), and
# adapt.Policy is sealed inside its package.
#
# The driver is a standard go/analysis unitchecker, so the go command
# loads packages and caches results; annotations on exported symbols
# flow across package boundaries as analysis facts.
#
# Usage: scripts/lint.sh [packages...]   (default ./...)
set -eu

cd "$(dirname "$0")/.."
pkgs=${*:-./...}

echo "lint: gofmt -l"
unformatted=$(find . -name '*.go' -not -path './vendor/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "lint: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "lint: go vet $pkgs"
go vet $pkgs

echo "lint: asynclint $pkgs"
go build -o bin/asynclint ./cmd/asynclint
go vet -vettool=bin/asynclint $pkgs

echo "lint: ok"
