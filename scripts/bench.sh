#!/usr/bin/env bash
# Runs the repository's Go benchmarks and emits one JSON document of results
# (ns/op, B/op, allocs/op per benchmark), for tracking performance across PRs.
#
# Usage:
#   scripts/bench.sh output.json             # explicit output file (required)
#   BENCH_SHORT=1 scripts/bench.sh out.json  # smoke mode: -short -benchtime 1x
#   BENCH_FORCE=1 scripts/bench.sh BENCH_N.json  # allow overwriting a snapshot
#
# An in-tree BENCH_N.json snapshot is the committed perf record of PR N, so
# the output name must be explicit and an existing snapshot is never silently
# clobbered: overwriting one requires BENCH_FORCE=1.
#
# Covers the root figure/ablation benchmarks, BenchmarkWarmRun and
# BenchmarkColdRun (one fully-warm / fully-cold served request in process;
# the warm one's store-read-B/op custom metric is carried into the JSON as
# store_read_bytes_per_op) plus the hot internal packages — among them
# internal/tensor's BenchmarkSgemmRosterShapes, whose GFLOP/s per roster GEMM
# shape and kernel body is carried as gflops.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || -z "${1:-}" ]]; then
    latest=$(ls BENCH_*.json 2>/dev/null | sed 's/[^0-9]*//g' | sort -n | tail -1)
    next="BENCH_$(( ${latest:-0} + 1 )).json"
    echo "usage: scripts/bench.sh <output.json>" >&2
    echo "refusing to guess an output name; the next snapshot would be $next" >&2
    exit 2
fi
out="$1"
if [[ "$(basename "$out")" =~ ^BENCH_[0-9]+\.json$ && -e "$out" && "${BENCH_FORCE:-0}" != "1" ]]; then
    echo "refusing to overwrite existing snapshot $out (set BENCH_FORCE=1 to override)" >&2
    exit 2
fi
pkgs=(. ./internal/dataflow ./internal/ml ./internal/cnn ./internal/tensor)

args=(-run '^$' -bench . -benchmem)
if [[ "${BENCH_SHORT:-0}" == "1" ]]; then
    args+=(-short -benchtime 1x)
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

for pkg in "${pkgs[@]}"; do
    echo "== go test -bench $pkg ==" >&2
    go test "${args[@]}" "$pkg" | tee -a "$raw" >&2
done

# Parse "BenchmarkName-8  10  123 ns/op  45 B/op  6 allocs/op" lines into JSON.
awk '
BEGIN { print "{"; print "  \"benchmarks\": [" ; n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = ""; bytes = ""; allocs = ""; storeread = ""; gflops = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "store-read-B/op") storeread = $i
        if ($(i+1) == "GFLOP/s") gflops = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (storeread != "") printf ", \"store_read_bytes_per_op\": %s", storeread
    if (gflops != "") printf ", \"gflops\": %s", gflops
    printf "}"
}
END { print ""; print "  ]"; print "}" }
' "$raw" > "$out"

count=$(grep -c '"name"' "$out" || true)
echo "wrote $count benchmark results to $out" >&2
