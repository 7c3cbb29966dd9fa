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
const calibrationGolden = `{"runs":2,"samples":3,"excluded":1,"half_life_seconds":1800,"ewma_log_ratio":0.039651,"drift_ratio":1.040448,"drift":0.040448,"suggested_scale":0.857143,"rel_err_hist":[{"le":"0.1","count":0},{"le":"0.25","count":1},{"le":"0.5","count":2},{"le":"1","count":0},{"le":"2","count":0},{"le":"5","count":0},{"le":"+Inf","count":0}]}
`

func TestCalibrationGoldenJSON(t *testing.T) {
	fc := clock.NewFake()
	a := newAPI(serverConfig{sloP99: defaultSLOP99, clk: fc})
	h := a.handler()

	rec1 := []calib.Sample{
		{Stage: "storage:peak", Est: 1 << 20, Meas: 1.5 * (1 << 20)},
		{Stage: "storage:spill", Est: 2 << 20, Meas: 1 << 20},
	}
	rec2 := []calib.Sample{
		{Stage: "storage:peak", Est: 4 << 20, Meas: 1 << 20, Cached: true},
		{Stage: "storage:peak", Est: 1 << 20, Meas: 1.25 * (1 << 20)},
	}
	if err := a.life.Calib.Record("tiny-alexnet|foods|100|7", rec1); err != nil {
		t.Fatal(err)
	}
	fc.Advance(calib.DefaultHalfLife)
	if err := a.life.Calib.Record("tiny-alexnet|foods|100|8", rec2); err != nil {
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
	if body := w.Body.String(); !regexp.MustCompile(`(?m)^calibration: 2 runs, 3 samples`).MatchString(body) {
		t.Fatalf("text report header missing:\n%s", body)
	}
}

// calibMetricRe captures vista_calib_samples_total{stage="..."} N lines from
// the Prometheus exposition.
var calibMetricRe = regexp.MustCompile(`(?m)^vista_calib_samples_total\{stage="([a-z]+)"\} (\d+(?:\.\d+)?(?:e\+\d+)?)$`)

// TestCalibrationReconcilesWithMetrics drives real /run traffic and checks
// the two calibration surfaces against each other: the /calibration report's
// storage sample count must equal the one vista_calib_samples_total series.
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
	// Every cold run compares its peak storage against the model.
	samples := rep["samples"].(float64)
	if samples < 3 {
		t.Fatalf("storage samples after 3 cold runs = %v, want at least 3", samples)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	matches := calibMetricRe.FindAllStringSubmatch(w.Body.String(), -1)
	if len(matches) != 1 || matches[0][1] != "storage" {
		t.Fatalf("vista_calib_samples_total series = %v, want the storage one only", matches)
	}
	if v, err := strconv.ParseFloat(matches[0][2], 64); err != nil || v != samples {
		t.Errorf("vista_calib_samples_total{stage=\"storage\"} = %s, /calibration says %v", matches[0][2], samples)
	}
}

// TestDriftSLOTrips feeds the server's recorder a storage sample measuring 3x
// its estimate (drift 2) and checks that /healthz?slo=1 degrades to 503 with
// its calibration clause, while a plain probe and a loose bound stay healthy.
func TestDriftSLOTrips(t *testing.T) {
	drifted := func() *calib.Recorder {
		rec, _ := calib.Open(calib.Config{}) // no path: cannot fail
		if err := rec.Record("drifted", []calib.Sample{{Stage: "storage:peak", Est: 1, Meas: 3}}); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	h := newAPI(serverConfig{sloP99: defaultSLOP99, maxDrift: 0.5, calib: drifted()}).handler()

	// Liveness without ?slo=1 never degrades.
	if code, body := doJSON(t, h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("plain healthz = %d %v", code, body)
	}

	code, body := doJSON(t, h, "GET", "/healthz?slo=1", "")
	if code != http.StatusServiceUnavailable || body["status"] != "slo-violated" {
		t.Fatalf("healthz?slo=1 under a 3x storage drift = %d %v, want 503", code, body)
	}
	viol := body["calibration_violations"].([]any)
	if len(viol) != 1 {
		t.Fatalf("calibration violations = %v, want exactly the storage drift", viol)
	}
	if d := viol[0].(map[string]any); d["ok"] != false ||
		d["bound"].(float64) != 0.5 || d["drift"].(float64) <= 0.5 {
		t.Errorf("violation %v is not a storage drift above the bound", d)
	}

	// Same drift, loose bound: drift is visible in the checked list but does
	// not degrade health.
	lh := newAPI(serverConfig{sloP99: defaultSLOP99, maxDrift: 1e6, calib: drifted()}).handler()
	code, body = doJSON(t, lh, "GET", "/healthz?slo=1", "")
	if code != http.StatusOK {
		t.Fatalf("healthz?slo=1 with loose bound = %d %v, want 200", code, body)
	}
	if checked := body["calibration"].([]any); len(checked) != 1 {
		t.Fatalf("loose-bound healthz calibration checks = %v, want the storage drift only", checked)
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
