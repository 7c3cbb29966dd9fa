package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/calib"
	"repro/internal/clock"
	"repro/internal/cnn"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/featurestore"
	"repro/internal/lifecycle"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// workloadRequest is the shared request body for /explain, /simulate, /run.
type workloadRequest struct {
	// Model is a roster name; full-scale for explain/simulate, Tiny* for
	// run.
	Model string `json:"model"`
	// Dataset is "foods" or "amazon".
	Dataset string `json:"dataset"`
	// Layers is |L| (0 = the paper's default: all the model's feature
	// layers).
	Layers int `json:"layers"`
	// Nodes/Cores/MemGB describe the environment (defaults: 8/8/32 for
	// explain+simulate, 2/4/32 for run).
	Nodes  int     `json:"nodes"`
	Cores  int     `json:"cores"`
	MemGB  float64 `json:"mem_gb"`
	Ignite bool    `json:"ignite"`
	// Plan overrides the logical plan for /simulate ("staged", "lazy",
	// "eager"; default staged).
	Plan string `json:"plan"`
	// Rows bounds the generated dataset for /run (default 500, max 20000).
	Rows int `json:"rows"`
	// Seed drives generation and weights for /run.
	Seed int64 `json:"seed"`
}

func (r *workloadRequest) defaults(m *cnn.Model, forRun bool) {
	if r.Layers <= 0 {
		// The paper's |L| for every roster model is all its feature layers.
		r.Layers = len(m.FeatureLayers)
	}
	if r.Nodes <= 0 {
		if forRun {
			r.Nodes = 2
		} else {
			r.Nodes = 8
		}
	}
	if r.Cores <= 0 {
		if forRun {
			r.Cores = 4
		} else {
			r.Cores = 8
		}
	}
	if r.MemGB <= 0 {
		r.MemGB = 32
	}
	if r.Rows <= 0 {
		r.Rows = 500
	}
	if r.Seed == 0 {
		r.Seed = 7
	}
}

// decisionJSON is the wire form of an optimizer decision.
type decisionJSON struct {
	CPU        int    `json:"cpu"`
	NP         int    `json:"np"`
	Join       string `json:"join"`
	Persist    string `json:"persistence"`
	MemDL      int64  `json:"mem_dl_bytes"`
	MemUser    int64  `json:"mem_user_bytes"`
	MemStorage int64  `json:"mem_storage_bytes"`
}

func toDecisionJSON(d optimizer.Decision) decisionJSON {
	return decisionJSON{
		CPU: d.CPU, NP: d.NP,
		Join: d.Join.String(), Persist: d.Pers.String(),
		MemDL: d.MemDL, MemUser: d.MemUser, MemStorage: d.MemStorage,
	}
}

// api is the service's process-wide state: the shared feature store (so
// repeated /run and /simulate requests on the same dataset+CNN reuse
// features across HTTP calls), the dataset catalog every /run obtains its
// tables from, the metrics registry behind GET /metrics, the run lifecycle
// (admission, sharing, calibration), and the retained run artifacts.
type api struct {
	store *featurestore.Store // nil = caching disabled
	// catalog holds the generated (dataset, rows) tables: a pure function of
	// the request, so each is generated once and shared read-only by every
	// run over it.
	catalog *data.Catalog
	metrics *obs.Registry
	// life is the run lifecycle every /run executes through: it holds the
	// admission controller and sharing coordinator (each nil when its
	// feature is off — see lifecycle.Runner) and the calibration
	// recorder behind GET /calibration (never nil here; memory-only when no
	// log is configured).
	life *lifecycle.Runner
	// runs retains recent runs' traces and time series for /trace and
	// /timeseries lookups by run ID.
	runs *runRing
	// logger receives request-scoped server logs, tagged with run IDs so
	// log lines join against /trace?run=ID; never nil.
	logger *slog.Logger
	// sloP99 is the per-endpoint p99 latency bound (seconds) that
	// /healthz?slo=1 enforces.
	sloP99 float64
	// maxDrift, when positive, adds a calibration clause to /healthz?slo=1:
	// a storage EWMA drift above it degrades health to 503.
	maxDrift float64
	// paths are the instrumented endpoints, for the SLO sweep.
	paths []string
}

// defaultSLOP99 is the default per-endpoint p99 latency bound: generous,
// because /run executes a real workload in-process.
const defaultSLOP99 = 60.0

// defaultRunHistory is how many completed runs' traces and time series the
// server retains for /trace and /timeseries lookups.
const defaultRunHistory = 16

// defaultShareWindow is how long after its first /run a sharing group accepts
// identical joiners. No request waits for it: the first arrival leads at
// once, and the window only bounds who may follow and how long the group's
// handoff stays alive for them.
const defaultShareWindow = 150 * time.Millisecond

// serverConfig assembles everything an api instance needs. The zero value
// of every field is valid: nil store disables caching, zero budget disables
// admission, and sloP99 is taken literally (0 = every observed request
// violates the bound — callers wanting the default pass defaultSLOP99).
type serverConfig struct {
	store  *featurestore.Store
	sloP99 float64
	// memBudgetBytes caps the summed admission price of concurrent /run
	// requests (0 = admission disabled).
	memBudgetBytes int64
	// queueDepth bounds how many /run requests may wait for budget.
	queueDepth int
	// queueTimeout bounds how long one /run request may wait.
	queueTimeout time.Duration
	// runHistory is how many completed runs /trace and /timeseries retain
	// (0 = defaultRunHistory).
	runHistory int
	// share enables multi-query shared inference for concurrent identical
	// /run requests; shareWindow is how long a group accepts joiners (0 =
	// the default).
	share       bool
	shareWindow time.Duration
	// clk is the time source for admission deadlines and share joinability
	// (nil = the wall clock); tests inject a fake for deterministic timing.
	clk clock.Clock
	// calib is the calibration recorder (nil = a fresh memory-only one);
	// main wires a log-backed recorder so drift history survives restarts.
	calib *calib.Recorder
	// maxDrift enables the /healthz?slo=1 calibration clause (0 = off).
	maxDrift float64
	// logger receives server logs (nil = discard; main wires stderr).
	logger *slog.Logger
}

// newAPI builds the service state from cfg.
func newAPI(cfg serverConfig) *api {
	if cfg.runHistory <= 0 {
		cfg.runHistory = defaultRunHistory
	}
	a := &api{
		store:    cfg.store,
		metrics:  obs.NewRegistry(),
		sloP99:   cfg.sloP99,
		maxDrift: cfg.maxDrift,
		runs:     newRunRing(cfg.runHistory),
		catalog:  data.NewCatalog(),
		life:     &lifecycle.Runner{Calib: cfg.calib},
		logger:   cfg.logger,
	}
	if a.life.Calib == nil {
		// Memory-only recorder: Open without a path cannot fail.
		a.life.Calib, _ = calib.Open(calib.Config{Clock: cfg.clk})
	}
	if a.logger == nil {
		a.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	a.life.Calib.RegisterMetrics(a.metrics)
	if cfg.memBudgetBytes > 0 {
		ctrl, err := admission.New(admission.Config{
			BudgetBytes:  cfg.memBudgetBytes,
			QueueDepth:   cfg.queueDepth,
			QueueTimeout: cfg.queueTimeout,
			Metrics:      a.metrics,
			Clock:        cfg.clk,
		})
		if err != nil {
			// Unreachable with a positive budget and the flag-validated
			// depth, but fail closed rather than silently unbounded.
			panic(err)
		}
		a.life.Admit = ctrl
	}
	if cfg.share {
		win := cfg.shareWindow
		if win <= 0 {
			win = defaultShareWindow
		}
		coord, err := share.New(share.Config{Window: win, Metrics: a.metrics, Clock: cfg.clk})
		if err != nil {
			// Unreachable with the positive window enforced above, but fail
			// closed rather than silently solo.
			panic(err)
		}
		a.life.Share = coord
	}
	if a.store != nil {
		a.store.RegisterMetrics(a.metrics)
	}
	a.metrics.Gauge("vista_tensor_kernel_info",
		"Constant 1, labelled with the GEMM micro-kernel body serving this process (avx2-fma or purego).",
		obs.Label{Key: "kernel", Value: tensor.KernelName()},
	).Set(1)
	return a
}

// handler wires the api's routes into an instrumented mux: every route gets
// latency and status-code series, served alongside engine/store series on
// GET /metrics.
func (a *api) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /roster", handleRoster)
	mux.HandleFunc("GET /featurestore", a.handleFeatureStore)
	mux.HandleFunc("GET /trace/{format}", a.handleTrace)
	mux.HandleFunc("GET /timeseries", a.handleTimeseries)
	mux.HandleFunc("GET /calibration", a.handleCalibration)
	mux.HandleFunc("POST /explain", handleExplain)
	mux.HandleFunc("POST /simulate", a.handleSimulate)
	mux.HandleFunc("POST /run", a.handleRun)
	known := map[string]bool{
		"/healthz": true, "/metrics": true, "/roster": true,
		"/featurestore": true, "/explain": true, "/simulate": true, "/run": true,
		"/trace/chrome": true, "/trace/otlp": true, "/timeseries": true,
		"/calibration": true,
	}
	for p := range known {
		a.paths = append(a.paths, p)
	}
	sort.Strings(a.paths)
	return instrument(a.metrics, known, mux)
}

// handleFeatureStore reports the store's counters.
func (a *api) handleFeatureStore(w http.ResponseWriter, _ *http.Request) {
	if a.store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"dir":     a.store.Dir(),
		"stats":   a.store.Snapshot(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeRequest(r *http.Request, forRun bool) (*workloadRequest, error) {
	var req workloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if req.Model == "" || req.Dataset == "" {
		return nil, errors.New("model and dataset are required")
	}
	m, err := cnn.ByName(req.Model)
	if err != nil {
		return nil, err
	}
	req.defaults(m, forRun)
	return &req, nil
}

func handleRoster(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name            string   `json:"name"`
		Params          int64    `json:"params"`
		SerializedBytes int64    `json:"serialized_bytes"`
		MemBytes        int64    `json:"mem_bytes"`
		GFLOPs          float64  `json:"gflops_per_inference"`
		FeatureLayers   []string `json:"feature_layers"`
	}
	var out []entry
	for _, name := range cnn.RosterNames() {
		m, err := cnn.ByName(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		st, err := cnn.ComputeStats(m)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		e := entry{Name: name, Params: st.Params, SerializedBytes: st.SerializedBytes,
			MemBytes: st.MemBytes, GFLOPs: float64(st.TotalFLOPs) / 1e9}
		for _, fl := range m.FeatureLayers {
			e.FeatureLayers = append(e.FeatureLayers, fl.Name)
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, out)
}

// whatIf asks sim.Vista what Vista picks for req's workload under the
// given logical plan, and what the run costs. The plan steps a /run of the
// workload would attach from store (nil for none) are priced as store
// reads. The WhatIf is nil only when req names no workload that builds; an
// infeasible one comes back with its estimates.
func whatIf(req *workloadRequest, kind plan.Kind, store *featurestore.Store) (*sim.WhatIf, error) {
	preset, ok := data.Preset(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	return sim.Vista(sim.WorkloadSpec{
		ModelName: req.Model, NumLayers: req.Layers, Dataset: sim.PaperDataset(preset),
		PlanKind: kind, Placement: plan.AfterJoin,
		Nodes: req.Nodes, CPUSys: req.Cores,
		MemSys:     memory.GB(req.MemGB),
		MemoryOnly: req.Ignite,
		Stored:     core.StoredEntries(store, req.Model, req.Seed, preset.WithRows(req.Rows)),
	})
}

func handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wi, err := whatIf(req, plan.Staged, nil)
	if wi == nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := map[string]any{
		"table_size_bytes": wi.TableSizes,
		"s_single_bytes":   wi.SSingle,
		"s_double_bytes":   wi.SDouble,
	}
	if err != nil {
		resp["feasible"] = false
		resp["reason"] = err.Error()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp["feasible"] = true
	resp["decision"] = toDecisionJSON(wi.Decision)
	writeJSON(w, http.StatusOK, resp)
}

func (a *api) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	kind := plan.Staged
	if req.Plan != "" {
		if kind, err = plan.ParseKind(req.Plan); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	// A workload /run already materialized simulates against warm features:
	// attached stages cost store I/O instead of CNN inference.
	wi, err := whatIf(req, kind, a.store)
	if wi == nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	res := wi.Result
	if res.Crash != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"crashed": true, "crash": res.Crash.Error(),
			"decision": toDecisionJSON(optimizer.Decision{
				CPU: wi.Config.CPU, NP: wi.Config.NP, Join: wi.Config.Join, Pers: wi.Config.Pers}),
		})
		return
	}
	type layerJSON struct {
		Layer    string  `json:"layer"`
		InferSec float64 `json:"infer_sec"`
		TrainSec float64 `json:"train_sec"`
		SpillSec float64 `json:"spill_sec"`
	}
	var layers []layerJSON
	for _, l := range res.Layers {
		layers = append(layers, layerJSON{Layer: l.Layer, InferSec: l.InferSec,
			TrainSec: l.TrainFirstSec + l.TrainRestSec, SpillSec: l.SpillSec})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"crashed":       false,
		"total_minutes": res.TotalMin(),
		"read_sec":      res.ReadSec,
		"join_sec":      res.JoinSec,
		"spilled_bytes": res.SpilledBytes,
		"cached_layers": wi.Workload.Plan.AttachedLayers(wi.Workload.Attached),
		"layers":        layers,
	})
}

// maxRunRows bounds /run's dataset size: this endpoint executes for real.
const maxRunRows = 20000

// runSampleEvery is the /run sampler period. Served runs are tiny-scale, so a
// short period keeps enough frames per stage for /timeseries to be useful.
const runSampleEvery = 5 * time.Millisecond

func (a *api) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Rows > maxRunRows {
		writeError(w, http.StatusBadRequest, fmt.Errorf("rows %d exceeds the real-execution cap %d", req.Rows, maxRunRows))
		return
	}
	preset, ok := data.Preset(req.Dataset)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	tables, err := a.catalog.Get(preset.WithRows(req.Rows))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := a.life.Do(r.Context(), core.Spec{
		Nodes: req.Nodes, CoresPerNode: req.Cores,
		MemPerNode: memory.GB(req.MemGB),
		SystemKind: memory.SparkLike,
		ModelName:  req.Model, NumLayers: req.Layers,
		Downstream:   core.DefaultDownstream(),
		Seed:         req.Seed,
		FeatureStore: a.store,
		Metrics:      a.metrics,
		SampleEvery:  runSampleEvery,
	}.WithTables(tables), req.Dataset)
	a.writeRunOutcome(w, req, out)
}

// statusClientClosedRequest is nginx's conventional code for "the client
// cancelled before a response was written" — never seen by a live client,
// but it keeps the vista_http_requests_total code label honest.
const statusClientClosedRequest = 499

// writeRunOutcome maps a run lifecycle outcome onto HTTP. A queue deadline is
// retryable (429 + Retry-After) while a full queue or an unpayable price is
// plain overload (503); an abandoned request gets a 499 nobody reads, so the
// status-code series never shows a fake success.
//
// The Retry-After hint comes from the admission controller's live state
// (recent queue waits scaled by occupancy), not a static constant: a fixed
// hint tells every rejected client to come back at the same instant, so each
// rejection wave re-arrives as a synchronized herd that rejects again. A
// load-dependent hint spreads the waves out as congestion evolves.
func (a *api) writeRunOutcome(w http.ResponseWriter, req *workloadRequest, out lifecycle.Outcome) {
	runID := runIDFor(out.RunSeq)
	switch out.Kind {
	case lifecycle.Abandoned:
		if out.RunSeq != 0 {
			a.logger.Info("run abandoned by client", "run_id", runID)
		}
		w.WriteHeader(statusClientClosedRequest)
	case lifecycle.GroupFailed:
		writeError(w, http.StatusInternalServerError, out.Err)
	case lifecycle.RejectedDeadline:
		retry := int64(math.Ceil(out.RetryAfter.Seconds()))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
		writeError(w, http.StatusTooManyRequests, out.Err)
	case lifecycle.RejectedOverload:
		writeError(w, http.StatusServiceUnavailable, out.Err)
	case lifecycle.Crashed:
		a.logger.Warn("run crashed", "run_id", runID, "model", req.Model,
			"dataset", req.Dataset, "rows", req.Rows, "err", out.Err)
		writeJSON(w, http.StatusOK, map[string]any{"crashed": true, "crash": out.Err.Error()})
	case lifecycle.Failed:
		a.logger.Warn("run failed", "run_id", runID, "model", req.Model,
			"dataset", req.Dataset, "rows", req.Rows, "err", out.Err)
		writeError(w, http.StatusBadRequest, out.Err)
	case lifecycle.Completed:
		a.writeRunResult(w, req, runID, out)
	}
}

// writeRunResult retains a completed run's artifacts and writes its response.
func (a *api) writeRunResult(w http.ResponseWriter, req *workloadRequest, runID string, out lifecycle.Outcome) {
	res := out.Result
	type layerJSON struct {
		Layer      string  `json:"layer"`
		FeatureDim int     `json:"feature_dim"`
		TrainF1    float64 `json:"train_f1"`
		TestF1     float64 `json:"test_f1"`
	}
	var layers []layerJSON
	for _, l := range res.Layers {
		layers = append(layers, layerJSON{Layer: l.LayerName, FeatureDim: l.FeatureDim,
			TrainF1: l.Train.F1, TestF1: l.Test.F1})
	}
	a.runs.complete(out.RunSeq, res.Trace, res.Series)
	// Calibration is observability, not the serving path: a failure is
	// logged, never surfaced to the client.
	if out.CompareErr != nil {
		a.logger.Debug("calibration comparison skipped", "run_id", runID, "err", out.CompareErr)
	} else if out.RecordErr != nil {
		a.logger.Warn("calibration log append failed", "run_id", runID, "err", out.RecordErr)
	}
	a.logger.Info("run complete", "run_id", runID, "model", req.Model,
		"dataset", req.Dataset, "rows", req.Rows,
		"elapsed_ms", res.Elapsed.Milliseconds(),
		"cached_stages", res.Cache.StagesFromCache)
	resp := map[string]any{
		"crashed":    false,
		"run_id":     runID,
		"decision":   toDecisionJSON(res.Decision),
		"layers":     layers,
		"elapsed_ms": res.Elapsed.Milliseconds(),
		"cache":      res.Cache,
	}
	if out.GroupSize > 0 {
		resp["share"] = map[string]any{
			"role":       out.Role.String(),
			"group_size": out.GroupSize,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
