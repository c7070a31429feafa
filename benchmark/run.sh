#!/bin/sh
# Builds the benchmark from source inside the checkout (build cache and
# binary under benchmark/out, which git ignores) and runs it from the
# checkout root with the arguments given.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/benchmark/out"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/benchmark.bin" .)
cd "$root"
exec "$out/benchmark.bin" "$@"
