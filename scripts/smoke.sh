#!/bin/sh
# Smoke test for the multi-process deployment, its observability surface,
# the durability pipeline, shard replication and materialized rollups:
# builds the binaries, boots coord (with -rollup definitions) + 2 durable
# workers + 1 server + the manager at -replication-factor 2, drives
# inserts and queries through the CLI client, asserts every process's
# /metrics endpoint serves Prometheus text with nonzero op counters
# (including replica_ship_bytes_total and replica_lag_records, and
# rollup_hits_total / rollup_cells from a -group-by query answered from
# rollup cells), then SIGKILLs one worker, asserts the manager promotes
# its shards' followers (manager_promotions_total) and that a query
# answers complete (no PARTIAL) from the promoted followers while the
# worker is still dead, restarts it over the same data directory and
# asserts it replayed its WAL (durable_recovery_replayed_records > 0).
#
# Every component listens on 127.0.0.1:0 and the script reads the bound
# address back from its log line, so concurrent runs (CI, a developer's
# second terminal) never collide on ports.
set -eu

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
LOG=$(mktemp -d)
DATA=$(mktemp -d)
PIDS=""

cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$BIN" "$LOG" "$DATA"
}
trap cleanup EXIT INT TERM

fail() {
	echo "smoke: FAIL: $*" >&2
	echo "---- process logs ----" >&2
	cat "$LOG"/*.log >&2 || true
	exit 1
}

echo "smoke: building binaries"
go build -o "$BIN" ./cmd/volap-coord ./cmd/volap-worker ./cmd/volap-server ./cmd/volap-manager ./cmd/volap

# spawn LABEL BINARY ARGS...: start a process with its own log file. The
# new pid is left in LAST_PID for callers that need to kill one process.
spawn() {
	label=$1
	name=$2
	shift 2
	"$BIN/$name" "$@" >"$LOG/$label.log" 2>&1 &
	LAST_PID=$!
	PIDS="$PIDS $LAST_PID"
}

# wait_log LABEL SED_EXPR: poll LABEL's log until SED_EXPR extracts a
# value (the address a component reported binding), then print it. The
# components print after Listen succeeds, so the address is dialable the
# moment it appears.
wait_log() {
	i=0
	while :; do
		v=$(sed -n "$2" "$LOG/$1.log" 2>/dev/null | head -n 1)
		if [ -n "$v" ]; then
			printf '%s\n' "$v"
			return 0
		fi
		i=$((i + 1))
		[ "$i" -gt 100 ] && return 1
		sleep 0.1
	done
}

obs_addr() {
	wait_log "$1" 's|.*observability on http://\([^/]*\)/metrics|\1|p'
}

echo "smoke: booting 1-server/2-worker cluster"
spawn coord volap-coord -listen 127.0.0.1:0 -rollup all -rollup Store:1
COORD=$(wait_log coord 's/^volap-coord: serving global system image on //p') ||
	fail "coord never reported its address"
spawn w0 volap-worker -coord "$COORD" -id w0 -listen 127.0.0.1:0 -shards 4 -metrics-addr 127.0.0.1:0 \
	-durability async -data-dir "$DATA/w0" -session-ttl 1s
W0_PID=$LAST_PID
spawn w1 volap-worker -coord "$COORD" -id w1 -listen 127.0.0.1:0 -shards 4 -metrics-addr 127.0.0.1:0 \
	-durability async -data-dir "$DATA/w1" -session-ttl 1s
wait_log w0 's/^volap-worker w0: serving on //p' >/dev/null || fail "w0 never came up"
wait_log w1 's/^volap-worker w1: serving on //p' >/dev/null || fail "w1 never came up"
W0_OBS=$(obs_addr w0) || fail "w0 never reported its metrics address"
W1_OBS=$(obs_addr w1) || fail "w1 never reported its metrics address"
spawn srv volap-server -coord "$COORD" -id s0 -listen 127.0.0.1:0 -sync 300ms -metrics-addr 127.0.0.1:0
wait_log srv 's/^volap-server s0: serving clients on \([^ ]*\).*/\1/p' >/dev/null ||
	fail "server never came up"
SRV_OBS=$(obs_addr srv) || fail "server never reported its metrics address"
spawn mgr volap-manager -coord "$COORD" -interval 300ms -replication-factor 2 -metrics-addr 127.0.0.1:0
MGR_OBS=$(obs_addr mgr) || fail "manager never reported its metrics address"

echo "smoke: driving inserts and queries"
"$BIN/volap" insert -coord "$COORD" -n 5000 -seed 7 >"$LOG/insert.log" 2>&1 || fail "insert stream"
"$BIN/volap" query -coord "$COORD" -n 3 -seed 7 >"$LOG/query.log" 2>&1 || fail "query stream"

# check_metrics ADDR COUNTER: the scrape must parse as Prometheus text
# and report a nonzero value for COUNTER (summed across label sets).
check_metrics() {
	addr=$1
	counter=$2
	body=$(curl -sf --max-time 5 "http://$addr/metrics") || fail "scraping $addr"
	echo "$body" | grep -q "^# TYPE " || fail "$addr: no TYPE comments in scrape"
	total=$(echo "$body" | awk -v name="$counter" '
		$1 == name || index($1, name "{") == 1 { sum += $2 }
		END { print sum + 0 }')
	case "$total" in
	0 | "") fail "$addr: $counter = 0, want nonzero" ;;
	esac
	echo "smoke: $addr $counter = $total"
}

# metrics_value ADDR NAME: print the metric's value summed across label
# sets, or 0 when the scrape fails or the metric is absent.
metrics_value() {
	curl -sf --max-time 5 "http://$1/metrics" 2>/dev/null | awk -v name="$2" '
		$1 == name || index($1, name "{") == 1 { sum += $2 }
		END { printf "%d\n", sum + 0 }'
}

check_metrics "$SRV_OBS" server_routes_total
check_metrics "$W0_OBS" worker_insert_seconds_count
check_metrics "$W1_OBS" worker_insert_seconds_count
check_metrics "$SRV_OBS" netmsg_request_seconds_count

echo "smoke: grouped query served from materialized rollups"
"$BIN/volap" query -coord "$COORD" -group-by Store:0 >"$LOG/query-groupby.log" 2>&1 ||
	fail "group-by query stream"
grep -q 'source=rollup' "$LOG/query-groupby.log" ||
	fail "group-by query not answered from rollups: $(head -n 1 "$LOG/query-groupby.log")"
# The ingest pipeline drains asynchronously; re-issue the grouped query
# until both workers report rollup activity on /metrics.
i=0
while :; do
	hits=$(( $(metrics_value "$W0_OBS" rollup_hits_total) + $(metrics_value "$W1_OBS" rollup_hits_total) ))
	cells=$(( $(metrics_value "$W0_OBS" rollup_cells) + $(metrics_value "$W1_OBS" rollup_cells) ))
	[ "$hits" -gt 0 ] && [ "$cells" -gt 0 ] && break
	i=$((i + 1))
	[ "$i" -gt 50 ] && fail "rollup metrics stayed 0 (rollup_hits_total=$hits rollup_cells=$cells)"
	"$BIN/volap" query -coord "$COORD" -group-by Store:0 >>"$LOG/query-groupby.log" 2>&1 || fail "group-by retry"
	sleep 0.2
done
echo "smoke: rollup_hits_total = $hits, rollup_cells = $cells"

echo "smoke: waiting for the manager to establish RF=2 replica sets"
i=0
while :; do
	ship=$(( $(metrics_value "$W0_OBS" replica_ship_bytes_total) + $(metrics_value "$W1_OBS" replica_ship_bytes_total) ))
	[ "$ship" -gt 0 ] && break
	i=$((i + 1))
	[ "$i" -gt 50 ] && fail "replica_ship_bytes_total stayed 0: manager never seeded replicas"
	# Replicas seeded after the initial load only ship records inserted
	# from now on — keep a trickle going until the stream is observed.
	"$BIN/volap" insert -coord "$COORD" -n 200 -seed "$i" >>"$LOG/insert.log" 2>&1 || fail "replication trickle insert"
	sleep 0.2
done
echo "smoke: replica_ship_bytes_total = $ship"
curl -sf --max-time 5 "http://$W0_OBS/metrics" "http://$W1_OBS/metrics" | grep -q '^replica_lag_records{' ||
	fail "no replica_lag_records gauge on either worker"

curl -sf --max-time 5 "http://$SRV_OBS/debug/volap" | grep -q '"trace"' ||
	fail "$SRV_OBS: /debug/volap has no trace buffer"

echo "smoke: SIGKILL w0 and wait for the manager to promote its shards"
kill -9 "$W0_PID"
i=0
until [ "$(metrics_value "$MGR_OBS" manager_promotions_total)" -ge 1 ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "manager_promotions_total stayed 0 after killing w0"
	sleep 0.2
done
echo "smoke: manager_promotions_total = $(metrics_value "$MGR_OBS" manager_promotions_total)"

# With w0 still dead, every shard must be served by a promoted follower:
# once the server's image catches up, a query answers complete.
echo "smoke: complete query after failover"
i=0
while :; do
	if "$BIN/volap" query -coord "$COORD" -n 1 -seed 7 >"$LOG/query-failover.log" 2>&1 &&
		! grep -q PARTIAL "$LOG/query-failover.log"; then
		break
	fi
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "query still partial or failing after promotion: $(head -n 1 "$LOG/query-failover.log")"
	sleep 0.2
done

echo "smoke: restart w0 over the same data dir"
spawn w0r volap-worker -coord "$COORD" -id w0 -listen 127.0.0.1:0 -shards 4 -metrics-addr 127.0.0.1:0 \
	-durability async -data-dir "$DATA/w0" -session-ttl 1s
wait_log w0r 's/^volap-worker w0: recovered \([0-9]*\) shards.*/\1/p' >/dev/null ||
	fail "restarted w0 never reported recovery"
wait_log w0r 's/^volap-worker w0: serving on //p' >/dev/null || fail "restarted w0 never came up"
W0R_OBS=$(obs_addr w0r) || fail "restarted w0 never reported its metrics address"
check_metrics "$W0R_OBS" durable_recovery_replayed_records
check_metrics "$W0R_OBS" durable_recovered_shards

# The recovered worker serves queries again once the server re-learns its
# address (it re-registers immediately; the server syncs every 300ms).
i=0
until "$BIN/volap" query -coord "$COORD" -n 1 -seed 9 >"$LOG/query-recovered.log" 2>&1; do
	i=$((i + 1))
	[ "$i" -gt 50 ] && fail "query against recovered worker"
	sleep 0.2
done

echo "smoke: PASS"
