#!/usr/bin/env bash
# Builds the hetpapi benchmark from source and runs it. Run from the
# repository root:
#
#   bash hetbench/run.sh --workload paper-hpl --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the Go build cache, its scratch files and
# the binary) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/hetbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C hetbench -o "$out/hetbench" .
exec "$out/hetbench" "$@"
