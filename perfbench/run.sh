#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload query-cold --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, temp files, the binary,
# data directories, trace files) stays under .bench_build/ in the
# checkout. Without the repository sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# in the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
