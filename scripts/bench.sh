#!/usr/bin/env sh
# bench.sh — record the async-runtime performance baseline.
#
# Runs the async benchmarks with -benchmem and writes the parsed results
# as JSON (default BENCH_PR15.json at the repo root) so later PRs can
# diff allocs/op and ns/op against a committed trajectory point. Each
# committed BENCH_PRn.json was recorded BEFORE that PR's change landed,
# so rows for benchmarks the PR introduced are absent from its own
# baseline; re-run this script as scripts/bench.sh BENCH_PRn.json to
# extend the trajectory.
#
# A second mode diffs two recorded baselines:
#
#   scripts/bench.sh --compare OLD.json NEW.json
#
# prints per-benchmark ns/op and allocs/op deltas (no jq — the JSON the
# record mode writes is line-structured enough for awk).
#
# A third mode walks the whole committed trajectory:
#
#   scripts/bench.sh --trend [metric]
#
# prints one row per benchmark with the chosen metric (default
# allocs/op; any recorded unit such as ns/op works) across every
# BENCH_PR*.json at the repo root in PR order — the at-a-glance view of
# how each hot path's cost has moved over the stacked sequence.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
#        scripts/bench.sh --compare OLD.json NEW.json
#        scripts/bench.sh --trend [metric]
set -eu

if [ "${1:-}" = "--compare" ]; then
	old=${2:?usage: bench.sh --compare OLD.json NEW.json}
	new=${3:?usage: bench.sh --compare OLD.json NEW.json}
	# Each benchmark is one `"name": {"iters": N, "ns/op": N, ...}` line;
	# pull the two metrics per file and join on the benchmark name.
	awk -v oldfile="$old" -v newfile="$new" '
	function metric(line, name,   pat, rest) {
		pat = "\"" name "\": "
		if (match(line, pat) == 0) return ""
		rest = substr(line, RSTART + RLENGTH)
		sub(/[,}].*/, "", rest)
		return rest
	}
	/^    "Benchmark/ {
		name = $1
		gsub(/[":]/, "", name)
		ns = metric($0, "ns/op"); al = metric($0, "allocs/op")
		if (FILENAME == oldfile) { oldns[name] = ns; oldal[name] = al }
		else { newns[name] = ns; newal[name] = al; if (!(name in seen)) { seen[name] = 1; order[++n] = name } }
	}
	END {
		printf "%-44s %14s %14s %9s %12s %12s %9s\n", "benchmark", "ns/op(old)", "ns/op(new)", "d%", "allocs(old)", "allocs(new)", "d%"
		for (i = 1; i <= n; i++) {
			name = order[i]
			if (!(name in oldns)) { printf "%-44s %14s\n", name, "(new)"; continue }
			dns = (oldns[name] > 0) ? 100 * (newns[name] - oldns[name]) / oldns[name] : 0
			dal = (oldal[name] > 0) ? 100 * (newal[name] - oldal[name]) / oldal[name] : 0
			printf "%-44s %14d %14d %8.1f%% %12d %12d %8.1f%%\n", name, oldns[name], newns[name], dns, oldal[name], newal[name], dal
		}
		for (name in oldns) if (!(name in newns)) printf "%-44s %14s\n", name, "(removed)"
	}
	' "$old" "$new"
	exit 0
fi

if [ "${1:-}" = "--trend" ]; then
	metric=${2:-allocs/op}
	cd "$(dirname "$0")/.."
	# PR-numeric order, not lexicographic (PR10 sorts after PR9).
	files=$(ls BENCH_PR*.json 2>/dev/null |
		sed 's/^BENCH_PR\([0-9]*\)\.json$/\1 BENCH_PR\1.json/' | sort -n | awk '{print $2}')
	if [ -z "$files" ]; then
		echo "bench.sh: no BENCH_PR*.json baselines at the repo root" >&2
		exit 1
	fi
	awk -v metric="$metric" '
	function metricval(line, name,   pat, rest) {
		pat = "\"" name "\": "
		if (match(line, pat) == 0) return ""
		rest = substr(line, RSTART + RLENGTH)
		sub(/[,}].*/, "", rest)
		return rest
	}
	FNR == 1 {
		label = FILENAME
		sub(/^BENCH_/, "", label); sub(/\.json$/, "", label)
		labels[++nf] = label
	}
	/^    "Benchmark/ {
		name = $1
		gsub(/[":]/, "", name)
		if (!(name in seen)) { seen[name] = 1; order[++n] = name }
		val[name, nf] = metricval($0, metric)
	}
	END {
		printf "%-44s", "benchmark (" metric ")"
		for (f = 1; f <= nf; f++) printf " %12s", labels[f]
		printf "\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "%-44s", name
			for (f = 1; f <= nf; f++) printf " %12s", (val[name, f] != "" ? val[name, f] : "-")
			printf "\n"
		}
	}
	' $files
	exit 0
fi

out=${1:-BENCH_PR15.json}
benchtime=${2:-3x}
cd "$(dirname "$0")/.."

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run xxx \
	-bench 'BenchmarkAsyncParallel$|BenchmarkAsyncModesPageRank$|BenchmarkAsyncStaleness$|BenchmarkAsyncRecovery$|BenchmarkAsyncAdaptive$|BenchmarkAsyncLive$|BenchmarkAsyncTraced$|BenchmarkAsyncSeries$|BenchmarkSetup$|BenchmarkStore$|BenchmarkEventHeap$|BenchmarkLocalContext$|BenchmarkGrouper$' \
	-benchmem -benchtime "$benchtime" . | tee "$raw" >&2

# Parse `BenchmarkName-N  iters  123 ns/op  45 B/op  6 allocs/op  0.5 metric`
# lines into a JSON object keyed by benchmark name (GOMAXPROCS suffix
# stripped). Custom b.ReportMetric units are kept alongside the standard
# triple.
awk -v benchtime="$benchtime" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	line = "    \"" name "\": {\"iters\": " $2
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		gsub(/[^A-Za-z0-9_\/-]/, "-", unit)
		line = line ", \"" unit "\": " $i
	}
	line = line "}"
	rows[++n] = line
}
END {
	print "{"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print "  \"benchmarks\": {"
	for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
	print "  }"
	print "}"
}
' "$raw" >"$out"

echo "wrote $out" >&2
