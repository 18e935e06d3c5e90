#!/bin/sh
# Runs the shard-replication failover benchmark and emits
# BENCH_replication.json: the window from the manager promotion pass to
# the first complete query answer at RF=2 after one of two workers is
# killed (detection TTL factored out by a fake clock). The header records
# cpus, GOMAXPROCS, the commit and the Go version the number was taken on.
#
# Usage: scripts/bench_replication.sh [output.json]   (default BENCH_replication.json)
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-BENCH_replication.json}
CPUS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
PROCS=${GOMAXPROCS:-$(nproc 2>/dev/null || echo "$CPUS")}
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	COMMIT="$COMMIT-dirty"
fi
GOVERSION=$(go env GOVERSION)
FAILOVER=$(mktemp)
trap 'rm -f "$FAILOVER"' EXIT INT TERM

echo "bench_replication: running go test -run TestReplicationFailoverTime"
go test -count=1 -v -run 'TestReplicationFailoverTime' . | tee "$FAILOVER"

MS=$(sed -n 's/^failover_ms=//p' "$FAILOVER" | head -n 1)
if [ -z "$MS" ]; then
	echo "bench_replication: no failover_ms line in test output" >&2
	exit 1
fi

cat >"$OUT" <<EOF
{
  "benchmark": "ShardReplication",
  "cpus": $CPUS,
  "gomaxprocs": $PROCS,
  "commit": "$COMMIT",
  "go_version": "$GOVERSION",
  "failover": {
    "unit": "RF=2, one of two workers killed; window from the manager promotion pass to the first complete (non-partial, exact-count) query; session-TTL detection excluded via a fake clock",
    "promotion_to_full_reads_ms": $MS
  }
}
EOF

echo "bench_replication: wrote $OUT"
cat "$OUT"
