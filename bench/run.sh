#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Builds the bench
# program from source and runs it with the arguments given. Everything the
# build and the run write stays under .bench_build/ and bench/out/ of the
# checkout this script sits in: Go's build cache, temp files and telemetry
# are pointed there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
