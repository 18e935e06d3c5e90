#!/bin/sh
# Runs the materialized-rollup benchmarks and emits BENCH_rollup.json:
# grouped-query latency with the rollup router on (queries answered from
# precomputed rollup cells) versus forced to the raw per-shard tree scan
# (WithNoRollup), on a 60k-item TPC-DS cluster.
#
# One op is one full-space group-by (Store country or Date year). The
# rollup path reads a handful of materialized cells per shard; the raw
# path walks each shard tree once and buckets what it reaches at query
# time, so the gap widens with data volume. The acceptance floor is a
# >=5x latency drop for the rollup path. The header records cpus,
# GOMAXPROCS, the commit and the Go version the numbers were taken on.
#
# Usage: scripts/bench_rollup.sh [output.json]   (default BENCH_rollup.json)
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-BENCH_rollup.json}
BENCHTIME=${BENCHTIME:-200x}
CPUS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
PROCS=${GOMAXPROCS:-$(nproc 2>/dev/null || echo "$CPUS")}
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	COMMIT="$COMMIT-dirty"
fi
GOVERSION=$(go env GOVERSION)
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT INT TERM

echo "bench_rollup: running go test -bench BenchmarkRollupGroupBy -benchtime $BENCHTIME"
go test -bench 'BenchmarkRollupGroupBy' -benchtime "$BENCHTIME" -run '^$' . | tee "$RAW"

awk -v cpus="$CPUS" -v procs="$PROCS" -v commit="$COMMIT" -v gover="$GOVERSION" '
/^BenchmarkRollupGroupBy\// {
	name = $1
	sub(/^BenchmarkRollupGroupBy\//, "", name)
	sub(/-[0-9]+$/, "", name)          # strip GOMAXPROCS suffix
	ns = 0
	for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i - 1)
	if (ns > 0) { lat[name] = ns; order[n++] = name }
}
END {
	if (!("rollup" in lat) || !("raw" in lat)) {
		print "bench_rollup: missing benchmark lines" > "/dev/stderr"; exit 1
	}
	printf "{\n  \"benchmark\": \"MaterializedRollups\",\n  \"cpus\": %d,\n", cpus
	printf "  \"gomaxprocs\": %d,\n  \"commit\": \"%s\",\n  \"go_version\": \"%s\",\n", procs, commit, gover
	printf "  \"group_by_latency\": {\n"
	printf "    \"unit\": \"one op = one full-space group-by (Store country or Date year) on a 60k-item TPC-DS cluster; rollup answers from materialized cells, raw forces the per-shard tree scan via WithNoRollup\",\n"
	base = lat["raw"]
	for (i = 0; i < n; i++) {
		m = order[i]
		printf "    \"%s\": {\"ns_per_query\": %.0f, \"queries_per_sec\": %.1f, \"speedup_vs_raw\": %.2f}%s\n",
			m, lat[m], 1e9 / lat[m], base / lat[m], (i < n - 1 ? "," : "")
	}
	printf "  },\n"
	printf "  \"target\": {\"rollup_speedup_vs_raw_min\": 5.0, \"met\": %s}\n}\n",
		(base / lat["rollup"] >= 5.0 ? "true" : "false")
}
' "$RAW" >"$OUT"

echo "bench_rollup: wrote $OUT"
cat "$OUT"
