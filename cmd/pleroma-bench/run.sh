#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds pleroma-bench from source into
# .bench_build/ of the checkout it is started from — build cache included,
# so nothing is read or written outside the checkout — and runs it with the
# caller's arguments. Without the repository around it (go.mod two levels
# up) the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The binary is built without VCS stamping (a checkout need not be a git
# repository); the commit reaches the output through the environment.
export PLEROMA_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -o "$build/pleroma-bench" .
exec "$build/pleroma-bench" "$@"
