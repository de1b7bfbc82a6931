#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ inside the checkout, then replaces
# this shell with the binary: the process the caller started is the benchmark
# itself, so killing it on a timeout leaves no child behind (a `go run` would
# leave its compiled child running). The Go build cache is kept inside the
# checkout too, so nothing is written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/deepbat-benchmark" ./benchmark
exec "$build/deepbat-benchmark" "$@"
