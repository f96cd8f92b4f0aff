#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it, passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload trace-scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary and the run's scratch files.
# The build never touches the network (GOPROXY=off); the benchmark module
# depends only on the repository module, through a local replace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out/run" "$@"
