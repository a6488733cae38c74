#!/usr/bin/env sh
# lint.sh — static-analysis gate: gofmt over every Go file, then go vet.
#
# The async runtime's determinism and scheduling contracts (the //async:
# annotations, internal/lint) are checked by tests, not here:
# TestAsyncContracts at the repository root type-checks the module with
# the standard library and fails on any violation, so go test ./...
# fails too; go test ./internal/lint/ checks the rules on their fixtures.
#
# Usage: scripts/lint.sh [packages...]   (default ./...)
set -eu

cd "$(dirname "$0")/.."
pkgs=${*:-./...}

echo "lint: gofmt -l"
unformatted=$(find . -name '*.go' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "lint: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "lint: go vet $pkgs"
go vet $pkgs

echo "lint: ok"
