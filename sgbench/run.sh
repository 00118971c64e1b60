#!/usr/bin/env bash
# Builds the StreamGlobe benchmark from this checkout's sources and runs it
# from the checkout's root, passing every argument on:
#
#   bash sgbench/run.sh --workload share --seed 1 --seconds 20 --trace 0
#   bash sgbench/run.sh steady --workload churn --runs 10
#
# Everything the build and the runs leave behind stays under .bench_build/:
# the Go build cache, the binary, durable state and trace files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd sgbench && go build -o "$out/sgbench" .)
exec "$out/sgbench" "$@"
