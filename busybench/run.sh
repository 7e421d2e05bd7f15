#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash busybench/run.sh --workload solve-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build output and toolchain file
# (binary, Go build cache, temporary files) goes under .bench_build in
# the current directory, and the toolchain is kept offline: the module
# has no dependencies outside the repository.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/busybench" .)
exec "$out/busybench" "$@"
