#!/usr/bin/env bash
# Builds the DART benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pipeline-small --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, WAL directories and span files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
