// Command vista-server exposes the Vista reproduction as a small JSON HTTP
// service:
//
//	GET  /healthz              liveness probe (?slo=1 degrades to 503 when any
//	                           endpoint's p99 latency exceeds -slo-p99)
//	GET  /metrics              Prometheus text exposition (engine, pools,
//	                           feature store, admission, per-endpoint HTTP
//	                           series)
//	GET  /roster               the CNN roster with derived statistics
//	GET  /featurestore         feature-store counters (hits, misses, bytes)
//	GET  /trace/{format}       a completed /run's trace: chrome (Perfetto
//	                           loadable) or otlp (OTLP-style JSON spans);
//	                           ?run=ID selects a retained run (default: the
//	                           most recent)
//	GET  /timeseries           a completed /run's sampled time series
//	                           (?format=csv for CSV, JSON otherwise; ?run=ID
//	                           as above)
//	GET  /calibration          the memory model's rolling drift report,
//	                           accumulated across every /run (?format=text for
//	                           an aligned table; JSON otherwise)
//	POST /explain              optimizer decision + size analysis (no execution)
//	POST /simulate             predicted runtime on a calibrated cluster profile
//	POST /run                  real tiny-scale execution with per-layer metrics
//
// The server holds one process-wide feature store, so repeated /run requests
// on the same dataset+CNN reuse materialized features, and /simulate prices
// cached layers at store-I/O cost instead of CNN inference.
//
// Concurrent /run requests are gated by memory-aware admission control
// (-mem-budget): each run is priced with the optimizer's memory model and
// admitted only while the summed price of in-flight runs fits the budget.
// Runs that do not fit wait in a bounded FIFO queue (-queue-depth,
// -queue-timeout); a timed-out wait gets 429 + Retry-After and a full queue
// gets 503. Cancelled client connections abort their run mid-stage and
// return the whole reservation.
//
// With -share, concurrent /run requests whose workload fingerprint matches
// (same model, weights, and image content) coalesce into one sharing group:
// the first arrival leads at once and executes the partial-CNN pass, and
// every identical request arriving within -share-window while the group is
// still running — and asking for no more layers — follows, attaching the
// leader's feature tables (never opening a DL session and paying only a
// marginal admission price) before finishing its own downstream training
// independently. No request waits for the window.
//
// Every completed /run also feeds the memory model's drift observatory
// (internal/calib): its predicted-vs-measured peak storage and spill bytes —
// what plan choice and admission price — append to the -calib-log file
// (replayed on restart, and offline by vista -calib report) and fold into
// the rolling aggregates behind GET /calibration and the vista_calib_*
// metrics. With -max-drift, /healthz?slo=1 degrades to 503 when the storage
// drift exceeds the bound. -debug-addr serves
// net/http/pprof on a separate opt-in listener, and -log-format selects
// text or JSON structured logs (run-ID tagged, joinable against
// /trace?run=ID). See docs/OPERATIONS.md for the full operator guide.
//
// Example:
//
//	vista-server -addr :8080 &
//	curl -s localhost:8080/explain -d '{"model":"resnet50","dataset":"foods"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/calib"
	"repro/internal/featurestore"
	"repro/internal/tensor"
)

// shutdownTimeout bounds how long in-flight requests may drain after
// SIGINT/SIGTERM.
const shutdownTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := flag.String("feature-cache", "",
		"feature store directory (default: a fresh per-process temp dir)")
	cacheMB := flag.Int64("feature-cache-mb", 256,
		"feature store byte budget in MiB (0 disables cross-run feature reuse)")
	sloP99 := flag.Float64("slo-p99", defaultSLOP99,
		"per-endpoint p99 latency bound in seconds, enforced by /healthz?slo=1")
	memBudget := flag.Int64("mem-budget", 256<<10,
		"admission budget in MiB of modeled workload memory across concurrent /run requests (0 disables admission control)")
	queueDepth := flag.Int("queue-depth", 16,
		"how many /run requests may queue for admission budget before 503s")
	queueTimeout := flag.Duration("queue-timeout", 30*time.Second,
		"how long one /run request may queue before a 429 with Retry-After")
	runHistory := flag.Int("run-history", defaultRunHistory,
		"how many completed runs /trace and /timeseries retain")
	shareOn := flag.Bool("share", false,
		"enable multi-query shared inference: concurrent /run requests on the same (model, weights, data) coalesce into one shared partial-CNN pass")
	shareWindow := flag.Duration("share-window", defaultShareWindow,
		"how long after its first /run a sharing group accepts identical requests and keeps its handoff for them; adds no latency (requires -share)")
	calibLog := flag.String("calib-log", "",
		"append-only calibration log file: every /run's estimate-vs-measured samples persist here and replay on restart (empty = in-memory aggregates only)")
	maxDrift := flag.Float64("max-drift", 0,
		"storage drift bound enforced by /healthz?slo=1: 503 when the storage EWMA drift (max(ratio,1/ratio)-1) exceeds it (0 disables)")
	debugAddr := flag.String("debug-addr", "",
		"optional separate listen address serving net/http/pprof profiles under /debug/pprof/ (empty = off)")
	logFormat := flag.String("log-format", "text",
		"server log format on stderr: text or json (log/slog)")
	flag.Parse()
	if *memBudget < 0 || *queueDepth < 0 || *queueTimeout < 0 || *runHistory < 0 {
		fmt.Fprintln(os.Stderr, "vista-server: -mem-budget, -queue-depth, -queue-timeout, and -run-history must be >= 0")
		os.Exit(2)
	}
	if *shareOn && *shareWindow <= 0 {
		fmt.Fprintln(os.Stderr, "vista-server: -share-window must be positive when -share is set")
		os.Exit(2)
	}
	if *maxDrift < 0 {
		fmt.Fprintln(os.Stderr, "vista-server: -max-drift must be >= 0")
		os.Exit(2)
	}
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintln(os.Stderr, "vista-server: -log-format must be text or json")
		os.Exit(2)
	}
	logger.Info("conv kernels configured", "kernel", tensor.KernelName())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var store *featurestore.Store
	if *cacheMB > 0 {
		dir := *cacheDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "vista-featurestore-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "vista-server:", err)
				os.Exit(1)
			}
			dir = tmp
		}
		var err error
		store, err = featurestore.Open(dir, *cacheMB<<20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vista-server:", err)
			os.Exit(1)
		}
		defer store.Close()
		logger.Info("feature store opened", "dir", dir, "budget_mib", *cacheMB)
	}

	calibRec, err := calib.Open(calib.Config{Path: *calibLog})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vista-server:", err)
		os.Exit(1)
	}
	defer calibRec.Close()
	if *calibLog != "" {
		logger.Info("calibration log opened",
			"path", *calibLog, "replayed_runs", calibRec.Report().Runs)
	}

	a := newAPI(serverConfig{
		store:          store,
		sloP99:         *sloP99,
		memBudgetBytes: *memBudget << 20,
		queueDepth:     *queueDepth,
		queueTimeout:   *queueTimeout,
		runHistory:     *runHistory,
		share:          *shareOn,
		shareWindow:    *shareWindow,
		calib:          calibRec,
		maxDrift:       *maxDrift,
		logger:         logger,
	})
	handler := a.handler()
	if *memBudget > 0 {
		logger.Info("admission control enabled", "budget_mib", *memBudget,
			"queue_depth", *queueDepth, "queue_timeout", *queueTimeout)
	}
	if *shareOn {
		logger.Info("shared inference enabled", "window", *shareWindow)
	}
	if *maxDrift > 0 {
		logger.Info("calibration drift SLO enabled", "max_drift", *maxDrift)
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr, logger)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	logger.Info("vista-server listening", "addr", *addr)
	if err := serve(ctx, srv); err != nil {
		fmt.Fprintln(os.Stderr, "vista-server:", err)
		os.Exit(1)
	}
	logger.Info("vista-server shut down cleanly")
}

// serveDebug runs the opt-in pprof listener. It is a separate mux on a
// separate address, never the serving mux: profiles stay reachable while the
// main listener is saturated, and are never exposed on the public address.
func serveDebug(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("debug listener serving pprof", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Warn("debug listener failed", "addr", addr, "err", err)
	}
}

// serve runs srv until ctx is cancelled (e.g. by SIGINT/SIGTERM), then
// drains in-flight requests via http.Server.Shutdown. It returns nil on a
// clean shutdown and the underlying error otherwise.
func serve(ctx context.Context, srv *http.Server) error {
	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	return <-errc
}
