#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Build cache, module cache, the go command's temporary files and its
# telemetry counters (kept under the user config directory) and the binary
# stay under .bench_build/ in the checkout; the toolchain is the local one
# (never downloaded).
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
