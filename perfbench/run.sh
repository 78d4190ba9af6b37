#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload sim-mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in the current directory (Go build cache included).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
