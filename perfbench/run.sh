#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/home"
# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
# counters, env file) inside the checkout too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
