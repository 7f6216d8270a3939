#!/usr/bin/env bash
# Builds the harness into <checkout>/.bench_build (Go build cache included, so
# nothing is written outside the checkout) and runs it with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/psbenchmark" . >&2
exec "$build/psbenchmark" "$@"
