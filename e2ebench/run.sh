#!/bin/sh
# Builds the end-to-end benchmark from the source tree and runs it with
# the given arguments, e.g.
#
#   sh e2ebench/run.sh --workload serve-zipf --seed 3 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build leaves behind (Go
# build cache, binary, traces) stays under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
