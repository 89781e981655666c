#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload ibd_replay --seed 1 --seconds 10 --trace 0
#
# Every build cache and scratch file stays under .bench_build in the
# directory it runs from; nothing is fetched (the module has no
# dependencies outside this repository).
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
build="$root/.bench_build/perfbench-go"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/modcache"

export GOCACHE="$build/cache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/modcache"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off

(cd "$bench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
