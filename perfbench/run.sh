#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload multicast-small --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, traced-run spans) stays
# under .bench_build/ in the checkout (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
