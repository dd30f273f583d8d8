#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the
# benchmark (see README.md). Run from the root of a checkout: everything
# this writes — the binary, Go's build cache, disk corpora, results and
# span files — stays under .bench_build/ there.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$PWD/$build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -C "$PWD/bench" -o "$build/vxbench" .
exec "$build/vxbench" -out "$build/out" "$@"
