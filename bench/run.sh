#!/usr/bin/env bash
# Builds the benchmark and the vipiped daemon from source into
# .bench_build/ under the current directory (the repository root), then
# runs the benchmark with the given arguments. Every file the toolchain
# writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" . && go build -o "$build/vipiped" vipipe/cmd/vipiped)
exec "$build/bench" "$@"
