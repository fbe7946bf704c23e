#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload deploy-1k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, temporary
# files, the binary, span dumps) goes under .bench_build/ in the current
# directory, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
