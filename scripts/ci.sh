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

echo "== unreferenced exports =="
go run ./scripts/unref

echo "== go build =="
go build ./...

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

echo "== GEMM micro-kernel: pure-Go body, and a non-amd64 build =="
# internal/tensor has two bodies of one micro-kernel contract: Go assembly
# (AVX2+FMA) on amd64 and a pure-Go body everywhere else. The tests above ran
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
# drift observatory saw them on every surface: /calibration reports non-empty
# per-stage aggregates, /metrics exports the vista_calib_* series, and the
# offline replay (vista -calib report) reproduces the live JSON byte-for-byte
# from the persisted log — the property that makes the log trustworthy.
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
for kind in ingest join infer train; do
    if ! grep -q "\"kind\":\"$kind\",\"samples\":[1-9]" "$calib_tmp/live.json"; then
        echo "calibration smoke: kind $kind has no samples after 3 runs" >&2
        cat "$calib_tmp/live.json" >&2
        exit 1
    fi
done
# (/metrics lands in a file first: grep -q on a live pipe SIGPIPEs curl,
# which pipefail would then report as a smoke failure.)
curl -sf "http://127.0.0.1:$calib_port/metrics" >"$calib_tmp/metrics.txt"
if ! grep -q '^vista_calib_samples_total{stage="infer"} [1-9]' "$calib_tmp/metrics.txt"; then
    echo "calibration smoke: vista_calib_samples_total missing from /metrics" >&2
    exit 1
fi
kill "$calib_server_pid"
wait "$calib_server_pid" 2>/dev/null || true
trap - EXIT
"$calib_tmp/vista" -calib "$calib_tmp/calib.log" -calib-json report >"$calib_tmp/offline.json"
cmp "$calib_tmp/live.json" "$calib_tmp/offline.json"
rm -rf "$calib_tmp"

echo "== calibration closed-loop smoke (-auto-calibrate) =="
# Boot a deliberately mis-calibrated server (-calib-infer-scale 25) with the
# feedback loop on, and assert the loop end to end: the distortion shows up as
# out-of-band drift, a refit fits and persists a profile (visible on /metrics
# as vista_calib_profile_*), fresh traffic recorded under the profile brings
# every kind's drift ratio back inside [0.5, 2.0], and the offline replay with
# the same half-life and the fitted profile reproduces the live /calibration
# JSON byte-for-byte. Single-layer runs keep each stage kind homogeneous so a
# per-kind factor can fully correct it (see docs/CALIBRATION.md).
loop_tmp=$(mktemp -d)
loop_port=$((20000 + RANDOM % 10000))
go build -o "$loop_tmp/vista-server" ./cmd/vista-server
go build -o "$loop_tmp/vista" ./cmd/vista
"$loop_tmp/vista-server" -addr "127.0.0.1:$loop_port" -feature-cache-mb 0 \
    -calib-log "$loop_tmp/calib.log" -calib-half-life 5s \
    -calib-profile "$loop_tmp/profile.json" -auto-calibrate \
    -calib-refit-interval 2s -calib-infer-scale 25 -log-format json \
    >"$loop_tmp/server.log" 2>&1 &
loop_server_pid=$!
trap 'kill "$loop_server_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$loop_port") 2>/dev/null; then exec 3>&- 3<&-; break; fi
    sleep 0.2
done
loop_run() {
    curl -sf "http://127.0.0.1:$loop_port/run" \
        -d '{"model":"tiny-alexnet","dataset":"foods","layers":1,"rows":100}' >/dev/null
}
# drift_of METRICS_FILE STAGE: pull one stage's vista_calib_drift_ratio.
drift_of() {
    sed -n "s/^vista_calib_drift_ratio{stage=\"$2\"} //p" "$1"
}
# band_ok LIVE_JSON: every evidenced kind's drift_ratio within [0.5, 2.0].
# Kinds whose active scale sits at a clamp bound (0.02 / 50, the
# DefaultFitOptions guardrail) are exempt: the loop has corrected as far as
# the guardrail allows, by design — see docs/CALIBRATION.md on saturation.
band_ok() {
    tr '{' '\n' <"$1" | awk -F'[:,]' '
        /"kind"/ && /"drift_ratio"/ {
            kind = ""; samples = 0; drift = 1; active = 1
            for (i = 1; i < NF; i++) {
                if ($i == "\"kind\"")         { gsub(/"/, "", $(i+1)); kind = $(i+1) }
                if ($i == "\"samples\"")      samples = $(i+1)
                if ($i == "\"drift_ratio\"")  drift = $(i+1)
                if ($i == "\"active_scale\"") active = $(i+1)
            }
            if (active <= 0.02 || active >= 50) next
            if (samples > 0 && (drift < 0.5 || drift > 2.0)) {
                printf "  %s drift %s out of band\n", kind, drift
                bad = 1
            }
        }
        END { exit bad }'
}
for _ in 1 2 3; do loop_run; done
# Probe A: the injected 25x inference inflation deflates the other kinds'
# estimated shares, so train's drift ratio blows out above the band.
curl -sf "http://127.0.0.1:$loop_port/metrics" >"$loop_tmp/metrics_a.txt"
drift_a=$(drift_of "$loop_tmp/metrics_a.txt" train)
if ! awk -v d="$drift_a" 'BEGIN { exit !(d > 2.0) }'; then
    echo "closed-loop smoke: train drift before refit = $drift_a, want > 2.0" >&2
    exit 1
fi
# The refit loop notices within a couple of intervals.
for i in $(seq 1 40); do
    curl -sf "http://127.0.0.1:$loop_port/metrics" >"$loop_tmp/metrics.txt"
    if grep -q '^vista_calib_profile_refits_total [1-9]' "$loop_tmp/metrics.txt"; then break; fi
    if [[ "$i" == 40 ]]; then
        echo "closed-loop smoke: no profile refit after 20s" >&2
        exit 1
    fi
    sleep 0.5
done
if ! grep -q '^vista_calib_profile_scale{stage="train"} ' "$loop_tmp/metrics.txt"; then
    echo "closed-loop smoke: vista_calib_profile_scale missing from /metrics" >&2
    exit 1
fi
[[ -s "$loop_tmp/profile.json" ]] || { echo "closed-loop smoke: profile file not persisted" >&2; exit 1; }
# Convergence rounds: fade the mis-calibrated history (several half-lives),
# drive fresh profile-corrected traffic, give the fitter two intervals to
# consume the residual window, and check the band. Real stage times are noisy
# (join is milliseconds of wall clock), so allow a few corrective rounds.
loop_converged=0
for round in 1 2 3; do
    sleep 12
    for _ in 1 2 3; do loop_run; done
    sleep 5
    curl -sf "http://127.0.0.1:$loop_port/calibration" >"$loop_tmp/live.json"
    if band_ok "$loop_tmp/live.json"; then loop_converged=1; break; fi
    echo "closed-loop smoke: round $round not yet converged"
done
if [[ "$loop_converged" != 1 ]]; then
    echo "closed-loop smoke: drift never converged into [0.5, 2.0]" >&2
    cat "$loop_tmp/live.json" >&2
    exit 1
fi
# Probe B: the same gauge that blew out at probe A is back inside the band.
curl -sf "http://127.0.0.1:$loop_port/metrics" >"$loop_tmp/metrics_b.txt"
drift_b=$(drift_of "$loop_tmp/metrics_b.txt" train)
if ! awk -v a="$drift_a" -v b="$drift_b" \
    'function al(x) { return x < 1 ? -log(x) : log(x) } BEGIN { exit !(al(b) < al(a) && b >= 0.5 && b <= 2.0) }'; then
    echo "closed-loop smoke: train drift did not converge: before=$drift_a after=$drift_b" >&2
    exit 1
fi
kill "$loop_server_pid"
wait "$loop_server_pid" 2>/dev/null || true
trap - EXIT
# Offline replay with the fitted profile active must reproduce the last live
# capture byte-for-byte: same log, same half-life, same profile file. (The
# capture above waited out two idle refit intervals, so the profile is stable.)
"$loop_tmp/vista" -calib "$loop_tmp/calib.log" -calib-half-life 5s \
    -calib-profile "$loop_tmp/profile.json" -calib-json report >"$loop_tmp/offline.json"
cmp "$loop_tmp/live.json" "$loop_tmp/offline.json"
rm -rf "$loop_tmp"

echo "== bench smoke (BENCH_SHORT=1) =="
bench_out=$(mktemp)
BENCH_SHORT=1 scripts/bench.sh "$bench_out"
rm -f "$bench_out"

echo "CI passed."
