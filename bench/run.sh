#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, see go.mod) and runs it from
# the checkout root. Every build product, including the Go build cache, stays
# under .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/pbs-bench" .)
cd "$root"
exec "$build/pbs-bench" "$@"
