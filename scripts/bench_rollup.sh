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
# >=5x latency drop for the rollup path, judged on the median of six
# samples per side (go test -count runs the rollup and raw
# sub-benchmarks alternately); the min and max of the per-sample ratios
# show the spread. The header records cpus, GOMAXPROCS, the commit and
# the Go version the numbers were taken on.
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

echo "bench_rollup: running go test -bench BenchmarkRollupGroupBy -benchtime $BENCHTIME -count 6"
go test -bench 'BenchmarkRollupGroupBy' -benchtime "$BENCHTIME" -count 6 -run '^$' . | tee "$RAW"

awk -v cpus="$CPUS" -v procs="$PROCS" -v commit="$COMMIT" -v gover="$GOVERSION" '
function median(a, n,    i, j, t, s) {
	for (i = 1; i <= n; i++) s[i] = a[i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
}
function list(a, n,    i, out) {
	out = ""
	for (i = 1; i <= n; i++) out = out (i > 1 ? ", " : "") sprintf("%.0f", a[i])
	return "[" out "]"
}
/^BenchmarkRollupGroupBy\// {
	name = $1
	sub(/^BenchmarkRollupGroupBy\//, "", name)
	sub(/-[0-9]+$/, "", name)          # strip GOMAXPROCS suffix
	ns = 0
	for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i - 1)
	if (ns <= 0) next
	if (name == "rollup") roll[++nr] = ns
	if (name == "raw") raw[++nw] = ns
}
END {
	if (nr == 0 || nr != nw) {
		print "bench_rollup: want as many rollup as raw samples, got " nr " and " nw > "/dev/stderr"; exit 1
	}
	for (i = 1; i <= nr; i++) {
		r = raw[i] / roll[i]
		if (i == 1 || r < lo) lo = r
		if (i == 1 || r > hi) hi = r
	}
	mr = median(roll, nr); mw = median(raw, nw)
	printf "{\n  \"benchmark\": \"MaterializedRollups\",\n  \"cpus\": %d,\n", cpus
	printf "  \"gomaxprocs\": %d,\n  \"commit\": \"%s\",\n  \"go_version\": \"%s\",\n", procs, commit, gover
	printf "  \"group_by_latency\": {\n"
	printf "    \"unit\": \"one op = one full-space group-by (Store country or Date year) on a 60k-item TPC-DS cluster; rollup answers from materialized cells, raw forces the per-shard tree scan via WithNoRollup\",\n"
	printf "    \"samples_per_side\": %d,\n", nr
	printf "    \"rollup\": {\"ns_per_query_median\": %.0f, \"queries_per_sec\": %.1f, \"ns_per_query\": %s},\n", mr, 1e9 / mr, list(roll, nr)
	printf "    \"raw\": {\"ns_per_query_median\": %.0f, \"queries_per_sec\": %.1f, \"ns_per_query\": %s},\n", mw, 1e9 / mw, list(raw, nw)
	printf "    \"speedup_vs_raw\": {\"of_medians\": %.2f, \"min\": %.2f, \"max\": %.2f}\n", mw / mr, lo, hi
	printf "  },\n"
	printf "  \"target\": {\"rollup_speedup_vs_raw_min\": 5.0, \"judged_on\": \"of_medians\", \"met\": %s}\n}\n",
		(mw / mr >= 5.0 ? "true" : "false")
}
' "$RAW" >"$OUT"

echo "bench_rollup: wrote $OUT"
cat "$OUT"
