#!/usr/bin/env bash
# Builds the job benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through to jobbench
# (--workload, --seed, --seconds, --trace). Build cache, binary and
# per-run scratch data all stay under .bench_build.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/jobbench" .)
exec "$build/jobbench" "$@"
