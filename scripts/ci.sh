#!/usr/bin/env bash
# CI gate: formatting, vet, build, and the full test suite under the race
# detector. Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== package docs =="
go run ./scripts/pkgdoc

echo "== exports with no non-test reader (//vista:keep exempts one) =="
go run ./scripts/unref

echo "== go build =="
go build ./...

echo "== non-test Go lines outside bench/ (informational, not a gate) =="
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l

echo "== examples (run each once) =="
# The build above only compiles the five examples; running each once catches
# one that builds but fails at run time (about 5 s in total on a 2-core box).
# An example's nonzero exit fails CI under set -e.
for ex in examples/*/; do
    echo "-- $ex"
    go run "./$ex" >/dev/null
done

echo "== go test -race =="
# The full chaos schedule set is too slow under the race detector; it gets a
# dedicated -short smoke below plus a full non-race run. internal/experiments,
# the slowest package here, runs ~10 s without -race and ~2 min with it on a
# 2-core box; -timeout 30m is headroom for slower runners over the default 10m.
go test -race -timeout 30m $(go list ./... | grep -v '/internal/chaos$')

echo "== go test -race (fault-injection critical packages) =="
# Armed-at-exit is enforced by each package's TestMain: a test that leaves a
# failpoint site armed fails the package even when every test passed.
# internal/tensor and internal/cnn carry the GEMM kernels and slab arena;
# their shared-model concurrency tests must run under -race every time.
# internal/workload is the load driver: its open/closed-loop scheduling and
# result bookkeeping are all cross-goroutine, so it races under -race or not
# at all. internal/calib carries the crash-consistent calibration log and the
# aggregates that metrics callbacks read while runs write. internal/data,
# internal/core and internal/lifecycle own the state concurrent runs share
# read-only (catalog tables, the weights-checksum memo, a run's identity):
# their sharing tests only mean something under the detector. internal/dl
# sessions borrow one realized *cnn.Weights read-only across concurrent runs.
# internal/lru is the cache under the store, the catalog, the sums memo and the
# partition spill order; it takes no lock, so the runs of its owners above are
# what check the locking around it. internal/ml's logistic regression fills
# one design block per partition from concurrent engine tasks and frees every
# block's User Memory charge on error and cancellation paths.
go test -race -count=1 ./internal/faultinject/... ./internal/calib ./internal/dataflow ./internal/featurestore ./internal/share ./internal/tensor ./internal/cnn ./internal/dl ./internal/workload ./internal/data ./internal/core ./internal/lifecycle ./internal/lru ./internal/ml

echo "== scheduler stress (dataflow task workers) =="
# Each node runs its tasks on per-operation workers that a failure or the run
# context stops; the tests that race those stops against running tasks, and
# two operations sharing one engine, repeat at several GOMAXPROCS (seconds).
go test -race -count=20 -cpu 1,2,4 -run 'RunTasks|ConcurrentTableOperations|SetContext' ./internal/dataflow

echo "== fuzz smoke (row codec) =="
# Every spill file and feature-store entry is decoded by DecodeRows, and an
# entry file is read back from disk, so a blob is outside input. The codec is
# uncompressed: no inflater caps what a corrupt length word can make the
# decoder allocate, so the decoder bounds it itself, and this smoke looks for
# a blob that panics it or decodes to rows that do not round-trip.
go test -run '^$' -fuzz '^FuzzDecodeRows$' -fuzztime 15s ./internal/dataflow

echo "== fuzz smoke (image codec) =="
# A saved dataset's .img files arrive from disk through `vista -data`, so an
# image blob is outside input too. The format is uncompressed: the decoder
# bounds what the header may claim by the blob's own length, and this smoke
# looks for a blob that panics it or decodes to a tensor that does not
# re-encode to the same bytes.
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 15s ./internal/tensor

echo "== fuzz smoke (convolution) =="
# The GEMM micro-kernel reads B at b[boff[p]:] straight out of a convolution's
# padded input, and the epilogue's residual operand R tile by tile, and the
# assembly body checks no bounds, so a wrong offset reads memory outside the
# slab instead of panicking. conv2DGEMM asserts the farthest B read once per
# call; this smoke drives random geometries (padding, strides, kernels that
# overhang the input, some with a residual and ReLU) over batches of 1 to 9
# images, whose panels may run across images, through both kernel bodies,
# holding each image to its direct convolution plus AddInPlace and ReLU.
go test -run '^$' -fuzz '^FuzzConv2DGEMMParity$' -fuzztime 15s ./internal/tensor

echo "== fuzz smoke (max pooling) =="
# 2×2 stride-2 pooling runs on its own assembly body (eight outputs per AVX2
# step, the tail in Go), which reads two input rows unchecked and answers
# NaN and signed zeros through a VMINPS/VORPS identity rather than Go's max.
# This smoke drives random 2/2 geometries over batches of 1 to 9 images, a
# share of their inputs NaN, ±0 or ±Inf, through both bodies, holding each
# to a window-by-window reference bit for bit (any NaN matching any NaN).
go test -run '^$' -fuzz '^FuzzMaxPool2DParity$' -fuzztime 15s ./internal/tensor

echo "== GEMM micro-kernel: pure-Go body, and a non-amd64 build =="
# internal/tensor has two bodies of one micro-kernel contract, and of the
# 2×2 max-pool contract: Go assembly (AVX2+FMA) on amd64 and a pure-Go body
# everywhere else. The tests above ran
# the parity suites over both on this runner; -tags purego additionally
# builds the package the way every other GOARCH sees it (no assembly file, no
# CPUID stub) and runs the layers on top of it. The arm64 cross-build (build
# and vet only, nothing runs) keeps a non-amd64 build from rotting; go vet's
# asmdecl pass, part of `go vet ./...` above, checks the assembly stubs
# against their Go declarations.
go test -count=1 -tags purego ./internal/tensor ./internal/cnn ./internal/dl
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor

echo "== chaos: -race short smoke =="
go test -race -short -count=1 ./internal/chaos

echo "== chaos: full schedule set =="
go test -count=1 ./internal/chaos

echo "== trace/timeseries export smoke =="
obs_tmp=$(mktemp -d)
go run ./cmd/vista -rows 200 -layers 2 \
    -trace-out "$obs_tmp/trace.json" -timeseries-out "$obs_tmp/series.csv" \
    >"$obs_tmp/stdout.txt" 2>"$obs_tmp/stderr.txt"
go run ./scripts/tracecheck -trace "$obs_tmp/trace.json" -timeseries "$obs_tmp/series.csv"
rm -rf "$obs_tmp"

echo "== bench module (vet + tests) =="
# bench/ is its own module (replace repro => ../), so the root ./... patterns
# above never compile it: API drift that breaks the repo benchmark would stay
# invisible until the benchmark pipeline runs.
go -C bench vet ./...
go -C bench test ./...

echo "== core-count sweep (concurrent packages) =="
# Orderings that only show at one GOMAXPROCS (a waiter that has not parked yet
# on 1 core, a publish that outruns its persist on 4) are caught here, not on
# whichever box runs tier-1 next.
go test -count=5 -cpu 1,2,4 ./internal/calib ./internal/featurestore ./internal/share ./internal/admission ./cmd/vista-server ./internal/data ./internal/core ./internal/lifecycle ./internal/tensor ./internal/cnn ./internal/dl ./internal/lru ./internal/dataflow ./internal/ml

echo "== vista-load smoke (admission flood, then shared-inference flood) =="
# Two closed-loop floods of 12 identical-body clients against a real server,
# each ending in a SIGTERM that must exit 0 (clean drain). vista-load exits
# nonzero unless every request is classified exactly once as 200/429/503
# (timeouts and transport failures told apart, none allowed), every 429
# carries Retry-After, the vista_admission_* counter deltas reconcile with the
# observed responses, and the in-flight/queue gauges drain to zero.
#   Phase 1: a budget fitting two priced tiny-alexnet/foods runs (54476 MiB
#   each — modeled memory, nothing near that is allocated) and a queue
#   timeout about one run long, so the flood must queue, time out (429) and
#   overflow (503) without ever failing.
#   Phase 2: -share with a budget fitting the whole flood. Because the scrape
#   now exposes vista_share_runs_total, vista-load also reconciles
#   leader+follower+solo == admitted, dedup FLOPs > 0 once a follower ran, and
#   open/waiting/live share gauges == 0. It runs at the default
#   -share-window: the first arrival leads at once and the clients' next
#   requests join its group while the pass runs, so followers form without a
#   longer window.
# load_rows sizes each request so one run is again about 0.1 s on a 2-core
# box, which is what the queue depths and timeouts of these phases were tuned
# for: with the vector GEMM kernel vista-load's default 40-row run takes
# ~0.04 s and every queue drains before its timeout (no 429 at all).
load_rows=160
flood_tmp=$(mktemp -d)
go build -o "$flood_tmp/vista-server" ./cmd/vista-server
go build -o "$flood_tmp/vista-load" ./cmd/vista-load
# flood_phase NAME SERVER_FLAGS...: boot, flood, scrape, SIGTERM, assert exit 0.
flood_phase() {
    local name=$1 port=$((20000 + RANDOM % 10000))
    shift
    "$flood_tmp/vista-server" -addr "127.0.0.1:$port" -feature-cache-mb 0 "$@" \
        >"$flood_tmp/$name.server.log" 2>&1 &
    local pid=$!
    trap "kill $pid 2>/dev/null || true" EXIT
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then exec 3>&- 3<&-; break; fi
        sleep 0.2
    done
    "$flood_tmp/vista-load" -url "http://127.0.0.1:$port" -mode closed \
        -profile 'flood(0s,6s,12)' -duration 6s -time-scale 1 -tick 1s \
        -rows "$load_rows" -request-timeout 2m | tee "$flood_tmp/$name.summary.txt"
    curl -sf "http://127.0.0.1:$port/metrics" >"$flood_tmp/$name.metrics.txt"
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "vista-load smoke ($name): server exited uncleanly after SIGTERM" >&2
        exit 1
    fi
    trap - EXIT
}
# summary_field FILE KEY: pull one key=N count out of a vista-load summary.
summary_field() {
    sed -n "s/.* $2=\([0-9]*\).*/\1/p" "$1"
}
flood_phase admission -mem-budget 110000 -queue-depth 4 -queue-timeout 300ms
if [[ "$(summary_field "$flood_tmp/admission.summary.txt" ok)" -eq 0 ]]; then
    echo "vista-load smoke (admission): no /run succeeded" >&2
    exit 1
fi
flood_phase share -mem-budget 660000 -queue-depth 12 -queue-timeout 30s -share
share_summary="$flood_tmp/share.summary.txt"
if [[ "$(summary_field "$share_summary" ok)" -eq 0 ||
    "$(summary_field "$share_summary" ok)" -ne "$(summary_field "$share_summary" offered)" ]]; then
    echo "vista-load smoke (share): not every request succeeded under a budget that fits the whole flood" >&2
    exit 1
fi
if ! grep -q '^vista_share_runs_total{role="follower"} [1-9]' "$flood_tmp/share.metrics.txt" ||
    ! grep -q '^vista_share_aborted_total 0$' "$flood_tmp/share.metrics.txt"; then
    echo "vista-load smoke (share): identical flood produced no followers, or members aborted" >&2
    grep '^vista_share_' "$flood_tmp/share.metrics.txt" >&2
    exit 1
fi
rm -rf "$flood_tmp"

echo "== vista-load smoke (compressed overload replay) =="
# Boot a single-slot server (the 60000 MiB budget fits exactly one priced
# tiny-alexnet/foods run — modeled memory, nothing near that is allocated)
# and replay a two-wave overload profile compressed 60x: ~30s of wall clock
# covering a calm baseline, a moderate flood, and a saturating flood.
# vista-load exits nonzero unless every offered request is classified
# exactly once, the server's admission counters reconcile with the observed
# responses, nothing failed at the transport layer, and the 429s carried
# >= 2 distinct Retry-After values — the regression gate for the
# static-hint retry herd. The queue is deep enough (48) that, at the ~0.1 s
# a $load_rows-row run takes on a 2-core box, its tail waits more than twice
# the 2 s timeout: a shallower queue (or a longer timeout, or a lighter
# request) drains too fast to produce any 429 there.
load_tmp=$(mktemp -d)
load_port=$((20000 + RANDOM % 10000))
go build -o "$load_tmp/vista-server" ./cmd/vista-server
go build -o "$load_tmp/vista-load" ./cmd/vista-load
"$load_tmp/vista-server" -addr "127.0.0.1:$load_port" -feature-cache-mb 0 \
    -mem-budget 60000 -queue-depth 48 -queue-timeout 2s \
    >"$load_tmp/server.log" 2>&1 &
load_server_pid=$!
trap 'kill "$load_server_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$load_port") 2>/dev/null; then exec 3>&- 3<&-; break; fi
    sleep 0.2
done
"$load_tmp/vista-load" -url "http://127.0.0.1:$load_port" \
    -profile 'const(1) + flood(4m,3m,25) + flood(16m,8m,45)' \
    -duration 30m -time-scale 60 -tick 2m -rows "$load_rows" \
    -min-retry-distinct 2 -max-inflight 1024 \
    -timeline "$load_tmp/timeline.csv" | tee "$load_tmp/summary.txt"
# The herd gate only binds when the run actually throttled; make sure the
# profile produced real signal on this machine rather than passing vacuously.
load_ok=$(sed -n 's/.* ok=\([0-9]*\).*/\1/p' "$load_tmp/summary.txt")
load_throttled=$(sed -n 's/.* throttled=\([0-9]*\).*/\1/p' "$load_tmp/summary.txt")
if [[ -z "$load_ok" || "$load_ok" -eq 0 || -z "$load_throttled" || "$load_throttled" -lt 2 ]]; then
    echo "vista-load smoke produced too little signal (ok=$load_ok throttled=$load_throttled)" >&2
    exit 1
fi
kill "$load_server_pid"
wait "$load_server_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$load_tmp"

echo "== calibration smoke (drift observatory end-to-end) =="
# Boot a log-backed server, drive three real /run requests, and assert the
# drift observatory saw them on every surface: /calibration reports storage
# samples, /metrics exports the vista_calib_* series with the storage drift
# ratio inside [0.8, 1.25] (the engine holds what Section 4.1 prices), and
# the offline replay (vista -calib report) reproduces the live JSON
# byte-for-byte from the persisted log — the property that makes the log
# trustworthy.
calib_tmp=$(mktemp -d)
calib_port=$((20000 + RANDOM % 10000))
go build -o "$calib_tmp/vista-server" ./cmd/vista-server
go build -o "$calib_tmp/vista" ./cmd/vista
"$calib_tmp/vista-server" -addr "127.0.0.1:$calib_port" -feature-cache-mb 0 \
    -calib-log "$calib_tmp/calib.log" -log-format json \
    >"$calib_tmp/server.log" 2>&1 &
calib_server_pid=$!
trap 'kill "$calib_server_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$calib_port") 2>/dev/null; then exec 3>&- 3<&-; break; fi
    sleep 0.2
done
for _ in 1 2 3; do
    curl -sf "http://127.0.0.1:$calib_port/run" \
        -d '{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}' >/dev/null
done
curl -sf "http://127.0.0.1:$calib_port/calibration" >"$calib_tmp/live.json"
if ! grep -q '"samples":[1-9]' "$calib_tmp/live.json"; then
    echo "calibration smoke: no storage samples after 3 runs" >&2
    cat "$calib_tmp/live.json" >&2
    exit 1
fi
# (/metrics lands in a file first: grep -q on a live pipe SIGPIPEs curl,
# which pipefail would then report as a smoke failure.)
curl -sf "http://127.0.0.1:$calib_port/metrics" >"$calib_tmp/metrics.txt"
if ! grep -q '^vista_calib_samples_total{stage="storage"} [1-9]' "$calib_tmp/metrics.txt"; then
    echo "calibration smoke: vista_calib_samples_total missing from /metrics" >&2
    exit 1
fi
calib_drift=$(sed -n 's/^vista_calib_drift_ratio{stage="storage"} //p' "$calib_tmp/metrics.txt")
if ! awk -v d="$calib_drift" 'BEGIN { exit !(d != "" && d >= 0.8 && d <= 1.25) }'; then
    echo "calibration smoke: storage drift ratio = '$calib_drift', want within [0.8, 1.25]" >&2
    exit 1
fi
kill "$calib_server_pid"
wait "$calib_server_pid" 2>/dev/null || true
trap - EXIT
"$calib_tmp/vista" -calib "$calib_tmp/calib.log" -calib-json report >"$calib_tmp/offline.json"
cmp "$calib_tmp/live.json" "$calib_tmp/offline.json"
# The CLI leg: an unsampled vista -calib run reads its storage counters from
# the run's span tree, and its record replays to storage samples inside the
# same drift band.
"$calib_tmp/vista" -model tiny-alexnet -rows 100 -layers 2 -calib "$calib_tmp/cli.log" >/dev/null
"$calib_tmp/vista" -calib "$calib_tmp/cli.log" -calib-json report >"$calib_tmp/cli.json"
if ! grep -q '"samples":[1-9]' "$calib_tmp/cli.json"; then
    echo "calibration smoke: the CLI run recorded no storage samples" >&2
    cat "$calib_tmp/cli.json" >&2
    exit 1
fi
cli_drift=$(sed -n 's/.*"drift_ratio":\([0-9.eE+-]*\).*/\1/p' "$calib_tmp/cli.json")
if ! awk -v d="$cli_drift" 'BEGIN { exit !(d != "" && d >= 0.8 && d <= 1.25) }'; then
    echo "calibration smoke: CLI storage drift ratio = '$cli_drift', want within [0.8, 1.25]" >&2
    exit 1
fi
rm -rf "$calib_tmp"

echo "== bench smoke (BENCH_SHORT=1) =="
bench_out=$(mktemp)
BENCH_SHORT=1 scripts/bench.sh "$bench_out"
rm -f "$bench_out"

echo "CI passed."
