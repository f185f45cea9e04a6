#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it with the
# given arguments. Everything the build writes — compiler cache, temporary
# files, the binary that the TCP workload re-executes as its workers — goes
# under .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. The first build in a checkout compiles the standard
# library into that cache; later ones take about a second.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bench" .
exec "$build/bench" "$@"
