#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (see README.md). Run from the repository root. Build products and
# the Go build cache stay under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -dir "$out/perfbench" "$@"
