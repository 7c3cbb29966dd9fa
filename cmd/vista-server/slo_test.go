package main

import (
	"net/http"
	"testing"

	"repro/internal/obs"
)

func TestCheckSLO(t *testing.T) {
	reg := obs.NewRegistry()
	check := func(bound float64) (SLOStatus, bool) {
		return CheckSLO(reg, "/healthz", bound, "vista_http_request_seconds", obs.Label{Key: "path", Value: "/healthz"})
	}

	// No series for the path yet: vacuous pass, and the probe must not mint
	// an empty histogram into the exposition.
	st, found := check(0.5)
	if found || !st.OK {
		t.Fatalf("missing series: found=%v ok=%v, want vacuous pass", found, st.OK)
	}

	h := reg.Histogram("vista_http_request_seconds", "lat", obs.DefBuckets,
		obs.Label{Key: "path", Value: "/healthz"})
	for i := 0; i < 100; i++ {
		h.Observe(0.003)
	}

	st, found = check(0.5)
	if !found || !st.OK || st.P99Seconds <= 0 {
		t.Errorf("fast endpoint: found=%v ok=%v p99=%v, want pass", found, st.OK, st.P99Seconds)
	}
	st, found = check(1e-9)
	if !found || st.OK {
		t.Errorf("tiny bound: found=%v ok=%v p99=%v, want violation", found, st.OK, st.P99Seconds)
	}
}

func TestHealthzSLOMode(t *testing.T) {
	// A generous bound passes even with traffic recorded.
	h := newHandlerSLO(nil, 60)
	doJSON(t, h, "GET", "/healthz", "")
	code, body := doJSON(t, h, "GET", "/healthz?slo=1", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz?slo=1 = %d %v, want 200 ok", code, body)
	}
	if body["slo"] == nil {
		t.Errorf("slo report missing: %v", body)
	}

	// An impossible bound degrades to 503 once any endpoint has latency.
	h = newHandlerSLO(nil, 0) // every observed request violates p99 <= 0
	doJSON(t, h, "GET", "/healthz", "")
	code, body = doJSON(t, h, "GET", "/healthz?slo=1", "")
	if code != http.StatusServiceUnavailable || body["status"] != "slo-violated" {
		t.Fatalf("healthz?slo=1 with zero bound = %d %v, want 503 slo-violated", code, body)
	}
	if vs, ok := body["violations"].([]any); !ok || len(vs) == 0 {
		t.Errorf("violations missing: %v", body)
	}

	// Plain healthz stays a trivial liveness probe either way.
	if code, body := doJSON(t, h, "GET", "/healthz", ""); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("plain healthz = %d %v", code, body)
	}
}
