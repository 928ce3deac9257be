#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through (see main.go for the flags). Run it from the repository root:
#
#   bash actorbench/run.sh --workload presence --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, telemetry, the binary)
# goes under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$root/actorbench" && go build -o "$out/actorbench" .) >&2
exec "$out/actorbench" "$@"
