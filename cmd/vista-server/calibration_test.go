package main

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/clock"
)

// calibrationGolden is the exact /calibration response for the hand-built
// records in TestCalibrationGoldenJSON: the endpoint's wire format is part of
// the operational surface (vista -calib report must reproduce it
// byte-for-byte), so it is pinned literally.
const calibrationGolden = `{"runs":2,"samples":7,"half_life_seconds":1800,"stages":[{"kind":"ingest","samples":2,"excluded":0,"ewma_log_ratio":-0.184915,"drift_ratio":0.831175,"drift":0.203116,"suggested_scale":0.833333,"active_scale":1,"rel_err_hist":[{"le":"0.1","count":0},{"le":"0.25","count":1},{"le":"0.5","count":1},{"le":"1","count":0},{"le":"2","count":0},{"le":"5","count":0},{"le":"+Inf","count":0}]},{"kind":"join","samples":1,"excluded":0,"ewma_log_ratio":0,"drift_ratio":1,"drift":0,"suggested_scale":1,"active_scale":1,"rel_err_hist":[{"le":"0.1","count":1},{"le":"0.25","count":0},{"le":"0.5","count":0},{"le":"1","count":0},{"le":"2","count":0},{"le":"5","count":0},{"le":"+Inf","count":0}]},{"kind":"infer","samples":2,"excluded":1,"ewma_log_ratio":0.198661,"drift_ratio":1.219769,"drift":0.219769,"suggested_scale":1.222222,"active_scale":1,"rel_err_hist":[{"le":"0.1","count":0},{"le":"0.25","count":1},{"le":"0.5","count":1},{"le":"1","count":0},{"le":"2","count":0},{"le":"5","count":0},{"le":"+Inf","count":0}]},{"kind":"train","samples":1,"excluded":0,"ewma_log_ratio":0,"drift_ratio":1,"drift":0,"suggested_scale":1,"active_scale":1,"rel_err_hist":[{"le":"0.1","count":1},{"le":"0.25","count":0},{"le":"0.5","count":0},{"le":"1","count":0},{"le":"2","count":0},{"le":"5","count":0},{"le":"+Inf","count":0}]},{"kind":"storage","samples":1,"excluded":0,"ewma_log_ratio":0.405465,"drift_ratio":1.5,"drift":0.5,"suggested_scale":1.5,"active_scale":1,"rel_err_hist":[{"le":"0.1","count":0},{"le":"0.25","count":0},{"le":"0.5","count":1},{"le":"1","count":0},{"le":"2","count":0},{"le":"5","count":0},{"le":"+Inf","count":0}]}]}
`

func TestCalibrationGoldenJSON(t *testing.T) {
	fc := clock.NewFake()
	a := newAPI(serverConfig{sloP99: defaultSLOP99, clk: fc})
	h := a.handler()

	rec1 := []calib.Sample{
		{Stage: "ingest", Kind: calib.KindIngest, Est: 0.4, Meas: 0.3},
		{Stage: "join", Kind: calib.KindJoin, Est: 0.2, Meas: 0.2},
		{Stage: "infer:fc6", Kind: calib.KindInfer, Est: 0.3, Meas: 0.4},
		{Stage: "train:fc6", Kind: calib.KindTrain, Est: 0.1, Meas: 0.1},
		{Stage: "cache:fc7", Kind: calib.KindInfer, Meas: 0.05, Cached: true},
		{Stage: "storage:peak", Kind: calib.KindStorage, Est: 1 << 20, Meas: 1.5 * (1 << 20)},
	}
	rec2 := []calib.Sample{
		{Stage: "ingest", Kind: calib.KindIngest, Est: 0.4, Meas: 0.35},
		{Stage: "infer:fc6", Kind: calib.KindInfer, Est: 0.3, Meas: 0.35},
	}
	if err := a.life.Calib.Record("tiny-alexnet|foods|100|7", rec1); err != nil {
		t.Fatal(err)
	}
	fc.Advance(calib.DefaultHalfLife)
	if err := a.life.Calib.Record("tiny-alexnet|foods|100|7", rec2); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest("GET", "/calibration", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("calibration = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	if got := w.Body.String(); got != calibrationGolden {
		t.Fatalf("calibration JSON drifted from golden:\ngot:  %s\nwant: %s", got, calibrationGolden)
	}

	// The text rendering serves the same report as an aligned table.
	req = httptest.NewRequest("GET", "/calibration?format=text", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("calibration?format=text = %d", w.Code)
	}
	if body := w.Body.String(); !regexp.MustCompile(`(?m)^calibration: 2 runs, 7 samples`).MatchString(body) {
		t.Fatalf("text report header missing:\n%s", body)
	}
}

// calibMetricRe captures vista_calib_samples_total{stage="..."} N lines from
// the Prometheus exposition.
var calibMetricRe = regexp.MustCompile(`(?m)^vista_calib_samples_total\{stage="([a-z]+)"\} (\d+(?:\.\d+)?(?:e\+\d+)?)$`)

// TestCalibrationReconcilesWithMetrics drives real /run traffic and checks
// the two calibration surfaces against each other: the /calibration report's
// per-kind sample counts must equal the vista_calib_samples_total series.
func TestCalibrationReconcilesWithMetrics(t *testing.T) {
	h := newHandler(nil)
	const runBody = `{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}`
	for i := 0; i < 3; i++ {
		if code, body := doJSON(t, h, "POST", "/run", runBody); code != http.StatusOK {
			t.Fatalf("run %d = %d %v", i, code, body)
		}
	}

	code, rep := doJSON(t, h, "GET", "/calibration", "")
	if code != http.StatusOK {
		t.Fatalf("calibration = %d", code)
	}
	if runs := rep["runs"].(float64); runs != 3 {
		t.Fatalf("calibration runs = %v, want 3", runs)
	}
	bySamples := map[string]float64{}
	for _, s := range rep["stages"].([]any) {
		st := s.(map[string]any)
		bySamples[st["kind"].(string)] = st["samples"].(float64)
	}
	// Every kind the run exercises accumulates evidence: /run samples each
	// run's series, so storage is compared too.
	for _, kind := range []string{"ingest", "join", "infer", "train", "storage"} {
		if bySamples[kind] == 0 {
			t.Errorf("kind %s has no samples after 3 runs: %v", kind, bySamples)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	matches := calibMetricRe.FindAllStringSubmatch(w.Body.String(), -1)
	if len(matches) != len(calib.Kinds) {
		t.Fatalf("found %d vista_calib_samples_total series, want %d:\n%v",
			len(matches), len(calib.Kinds), matches)
	}
	for _, m := range matches {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparseable metric value %q", m[2])
		}
		if want := bySamples[m[1]]; v != want {
			t.Errorf("vista_calib_samples_total{stage=%q} = %v, /calibration says %v", m[1], v, want)
		}
	}
}

// TestDriftSLOTrips pins a storage factor 10x (the way an operator would
// mis-calibrate a server, through -calib-profile; the run holds about 1.9x
// the paper model's bytes, so drift sits near 0.19) and checks that
// /healthz?slo=1 degrades to 503 with a storage-only calibration clause,
// while a plain probe and a loose bound stay healthy.
func TestDriftSLOTrips(t *testing.T) {
	offBy10 := &calib.Profile{Version: 2, StorageScale: 10}
	a := newAPI(serverConfig{sloP99: defaultSLOP99, maxDrift: 0.5, calibProfile: offBy10})
	h := a.handler()
	code, body := doJSON(t, h, "POST", "/run",
		`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}`)
	if code != http.StatusOK {
		t.Fatalf("run = %d %v", code, body)
	}

	// Liveness without ?slo=1 never degrades.
	if code, body := doJSON(t, h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("plain healthz = %d %v", code, body)
	}

	code, body = doJSON(t, h, "GET", "/healthz?slo=1", "")
	if code != http.StatusServiceUnavailable || body["status"] != "slo-violated" {
		t.Fatalf("healthz?slo=1 under a 10x storage mis-calibration = %d %v, want 503", code, body)
	}
	viol := body["calibration_violations"].([]any)
	if len(viol) != 1 {
		t.Fatalf("calibration violations = %v, want exactly the storage kind", viol)
	}
	if d := viol[0].(map[string]any); d["stage"] != "storage" || d["ok"] != false ||
		d["bound"].(float64) != 0.5 || d["drift"].(float64) <= 0.5 {
		t.Errorf("violation %v is not a storage drift above the bound", d)
	}

	// Same mis-calibration, loose bound: drift is visible in the checked
	// list but does not degrade health.
	loose := newAPI(serverConfig{sloP99: defaultSLOP99, maxDrift: 1e6, calibProfile: offBy10})
	lh := loose.handler()
	if code, body := doJSON(t, lh, "POST", "/run",
		`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}`); code != http.StatusOK {
		t.Fatalf("run = %d %v", code, body)
	}
	code, body = doJSON(t, lh, "GET", "/healthz?slo=1", "")
	if code != http.StatusOK {
		t.Fatalf("healthz?slo=1 with loose bound = %d %v, want 200", code, body)
	}
	if checked := body["calibration"].([]any); len(checked) != 1 {
		t.Fatalf("loose-bound healthz calibration checks = %v, want the storage kind only", checked)
	}
}

// TestCalibrationPersistsAcrossRestart wires a log-backed recorder the way
// main does and checks a second server resumes the first one's aggregates.
func TestCalibrationPersistsAcrossRestart(t *testing.T) {
	path := t.TempDir() + "/calib.log"
	open := func() (*calib.Recorder, http.Handler) {
		rec, err := calib.Open(calib.Config{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		return rec, newAPI(serverConfig{sloP99: defaultSLOP99, calib: rec}).handler()
	}

	rec, h := open()
	if code, body := doJSON(t, h, "POST", "/run",
		`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}`); code != http.StatusOK {
		t.Fatalf("run = %d %v", code, body)
	}
	_, before := doJSON(t, h, "GET", "/calibration", "")
	if before["runs"].(float64) != 1 {
		t.Fatalf("first server runs = %v, want 1", before["runs"])
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, h2 := open()
	defer rec2.Close()
	_, after := doJSON(t, h2, "GET", "/calibration", "")
	if after["runs"].(float64) != 1 {
		t.Fatalf("restarted server runs = %v, want the replayed 1", after["runs"])
	}
	if time.Duration(after["half_life_seconds"].(float64))*time.Second != calib.DefaultHalfLife {
		t.Fatalf("half-life = %v", after["half_life_seconds"])
	}
}
