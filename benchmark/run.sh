#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build writes — compile
# cache, module cache, temporaries, the binary — stays in .bench_build/
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" \
		GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$build/volap-benchmark" .
)
cd "$root"
exec "$build/volap-benchmark" -out benchmark/out "$@"
