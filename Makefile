GO ?= go

.PHONY: check fmt vet build test race bench bench-smoke bench-replication bench-rollup examples smoke

# The standard gate: everything CI (and the tier-1 verify) runs.
check: fmt vet build race

# gofmt gate: fails listing any file that needs formatting.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One pass: the race detector and a shuffled test order together flush
# out both data races and inter-test state dependence.
race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The benchmark module (benchmark/) imports internal/server and
# internal/worker directly and is its own Go module, so the root gate
# never builds it: vet it and run its tests under the race detector.
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test -race .

# Shard replication: the failover window (promotion pass to the first
# complete read), emitted machine-readable as BENCH_replication.json.
bench-replication:
	./scripts/bench_replication.sh

# Materialized rollups: grouped-query latency from rollup cells vs the
# raw tree-scan path, emitted machine-readable as BENCH_rollup.json.
bench-rollup:
	./scripts/bench_rollup.sh

examples:
	$(GO) run ./examples/quickstart

# Boots a real 1-server/2-worker cluster from the built binaries, drives
# inserts+queries, and asserts /metrics reports nonzero op counters.
smoke:
	./scripts/smoke.sh
