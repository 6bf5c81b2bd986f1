#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload fuzz --seed 1 --seconds 20 --trace 0
#
# Every build product (the Go build cache and the binary) stays in
# .bench_build at the checkout root, so the run reads and writes nothing
# outside the checkout. The module in perfbench/ imports the engine from
# the parent directory; without it the build fails and nothing is printed.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
