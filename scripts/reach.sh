#!/usr/bin/env sh
# reach.sh — which library functions do the end-to-end runs never reach?
#
# Builds cmd/asyncmr, cmd/graphgen, cmd/partitioner, cmd/tracecheck and
# the four examples with coverage over every package, runs the
# experiments CI job's end-to-end commands under one GOCOVERDIR, and
# prints every function under internal/ (outside internal/lint and
# internal/async/asynctest, which only the analyzers and the tests run)
# that none of them executed.
# A listed function is code only a test reaches: a candidate for deletion
# unless it is safety code (an error path, an input check, a recovery
# branch), which stays.
#
# scripts/reach.allow names, one line each, the unreached functions that
# stay and why: "FILE FUNCTION REASON", FILE relative to the module root
# and FUNCTION as `go tool cover -func` spells it. A failing command, or
# an unreached function the file does not name, fails the script.
#
# Usage: scripts/reach.sh   (about two minutes on two cores)
set -eu

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
mkdir "$bin" "$work/cov"

for p in cmd/asyncmr cmd/graphgen cmd/partitioner cmd/tracecheck \
	examples/quickstart examples/pagerank examples/shortestpath examples/kmeans; do
	go build -cover -coverpkg=./... -o "$bin/$(basename "$p")" "./$p"
done

export GOCOVERDIR="$work/cov"
"$bin/asyncmr" -scale 32 all
for ex in quickstart pagerank shortestpath kmeans; do
	"$bin/$ex"
done
"$bin/graphgen" -preset a -scale 32 -o "$work/a.bin"
"$bin/partitioner" -in "$work/a.bin" -k 8,16
"$bin/graphgen" -nodes 450000 -o "$work/big.bin"
"$bin/partitioner" -in "$work/big.bin" -k 16,6400 -method multilevel
for mode in general eager async live; do
	"$bin/asyncmr" -scale 32 -mode "$mode" run
done
"$bin/asyncmr" -scale 32 -mode async -staleness 4 -parallel run
"$bin/asyncmr" -scale 32 -mode async -staleness 4 -mttf 2 -ckpt steps:8 run
"$bin/asyncmr" -scale 32 -mode live -staleness inf -workers 4 run
"$bin/asyncmr" -scale 32 -mode async -trace "$work/des.json" -series "$work/des.csv" run
"$bin/asyncmr" -scale 32 -mode live -trace "$work/live.json" -series "$work/live.csv" run
"$bin/tracecheck" "$work"/des.*.json "$work"/live.*.json
"$bin/tracecheck" -series "$work"/des.*.csv "$work"/live.*.csv

go tool covdata textfmt -i "$work/cov" -o "$work/profile.txt"
go tool cover -func "$work/profile.txt" |
	awk '$NF == "0.0%" && $1 ~ /^repro\/internal\// && $1 !~ /^repro\/internal\/(lint|async\/asynctest)\// {
		sub(/^repro\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' | sort -u >"$work/unreached.txt"
awk '!/^#/ && NF { print $1, $2 }' scripts/reach.allow >"$work/allowed.txt"
echo
echo "reach: functions under internal/ no end-to-end command reached"
cat "$work/unreached.txt"
if grep -vxF -f "$work/allowed.txt" "$work/unreached.txt" >"$work/unlisted.txt"; then
	echo
	echo "reach: unreached and not in scripts/reach.allow (reach them, delete them, or list them with a reason):"
	cat "$work/unlisted.txt"
	exit 1
fi
