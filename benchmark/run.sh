#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; run from the root of
# the checkout, e.g.
#
#   bash benchmark/run.sh --workload solve-giant --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and traced runs' spans all stay under
# .bench_build/ at the checkout root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/benchmark"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off go build -o "$out/nodedp-bench" .
)
exec "$out/nodedp-bench" "$@"
