package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/featurestore"
	"repro/internal/tensor"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	return rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h := newHandler(store)

	// Generate traffic: two known endpoints, one 4xx, one unregistered path.
	doJSON(t, h, "GET", "/healthz", "")
	doJSON(t, h, "GET", "/healthz", "")
	doJSON(t, h, "POST", "/explain", `{}`)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/no/such/route", nil))

	out := scrape(t, h)
	for _, want := range []string{
		"# TYPE vista_http_request_seconds histogram",
		`vista_http_request_seconds_bucket{path="/healthz",le="+Inf"} 2`,
		"vista_http_request_seconds_sum{path=\"/healthz\"}",
		`vista_http_requests_total{code="200",path="/healthz"} 2`,
		`vista_http_requests_total{code="400",path="/explain"} 1`,
		`path="other"`,
		"vista_featurestore_misses_total 0",
		`vista_tensor_kernel_info{kernel="` + tensor.KernelName() + `"} 1`,
		"vista_featurestore_used_bytes 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// Arbitrary request paths must not mint label values.
	if strings.Contains(out, "/no/such/route") {
		t.Error("unregistered path leaked into labels")
	}
}

// TestMetricsAfterRun: a real /run leaves engine and pool series behind, and
// the store series reflect the published features.
func TestMetricsAfterRun(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h := newHandler(store)

	code, body := doJSON(t, h, "POST", "/run",
		`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":60}`)
	if code != http.StatusOK || body["crashed"] != false {
		t.Fatalf("/run = %d %v", code, body)
	}

	out := scrape(t, h)
	for _, want := range []string{
		"vista_engine_tasks_total",
		"vista_engine_flops_total",
		`vista_pool_used_bytes{node="0",pool="storage"}`,
		"vista_featurestore_puts_total",
		`vista_http_requests_total{code="200",path="/run"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
