#!/usr/bin/env bash
# Entry point of the benchmark: builds the harness and runs it with the
# given flags (see README.md), from the repository root:
#
#   bash benchmark/run.sh --workload mix8 --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its own
# config) is pointed inside the checkout, under .bench_build/, so a run
# reads and writes nothing outside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOENV=off
unset XDG_CACHE_HOME XDG_CONFIG_HOME GOBIN

(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
