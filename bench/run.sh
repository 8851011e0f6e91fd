#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache included, so the
# run reads and writes nothing outside it) and runs it with the given
# arguments. Fails before printing anything when the repository's
# sources are not there to build against.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/mpichmad-bench" . >&2
cd "$root"
exec "$build/mpichmad-bench" "$@"
