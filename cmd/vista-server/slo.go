package main

import (
	"net/http"

	"repro/internal/obs"
)

// SLOStatus is one endpoint's latency SLO evaluation.
type SLOStatus struct {
	Path string `json:"path"`
	// P99Seconds is the interpolated 99th-percentile request latency from
	// the endpoint's vista_http_request_seconds buckets.
	P99Seconds float64 `json:"p99_seconds"`
	// BoundSeconds is the configured bound; OK is P99Seconds <= BoundSeconds.
	BoundSeconds float64 `json:"bound_seconds"`
	OK           bool    `json:"ok"`
}

// CheckSLO evaluates the p99 of the histogram series (name, labels) in reg
// against p99Bound (seconds), reporting it under path. A series with no
// recorded observations passes vacuously (found=false): absence of traffic
// is not an SLO violation, and probing must not mint empty series into the
// exposition.
func CheckSLO(reg *obs.Registry, path string, p99Bound float64, name string, labels ...obs.Label) (st SLOStatus, found bool) {
	st = SLOStatus{Path: path, BoundSeconds: p99Bound, OK: true}
	h := reg.FindHistogram(name, labels...)
	if h == nil {
		return st, false
	}
	p99, ok := h.Quantile(0.99)
	if !ok {
		return st, false
	}
	st.P99Seconds = p99
	st.OK = p99 <= p99Bound
	return st, true
}

// handleHealthz is the liveness probe. Plain GET /healthz always reports ok;
// GET /healthz?slo=1 additionally sweeps every instrumented endpoint's p99
// latency — plus the admission queue wait, when admission control is on, and
// the cost model's calibration drift, when -max-drift is set — against the
// configured bounds and degrades to 503 when anything violates them — a
// scrape-free hook for external health checkers.
func (a *api) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("slo") == "" {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	var checked, violations []SLOStatus
	check := func(st SLOStatus, found bool) {
		if !found {
			return
		}
		checked = append(checked, st)
		if !st.OK {
			violations = append(violations, st)
		}
	}
	for _, path := range a.paths {
		check(CheckSLO(a.metrics, path, a.sloP99, "vista_http_request_seconds", obs.Label{Key: "path", Value: path}))
	}
	if a.life.Admit != nil {
		check(CheckSLO(a.metrics, "admission-queue", a.sloP99, "vista_admission_queue_wait_seconds"))
	}
	var driftChecked, driftViolations []DriftStatus
	if a.maxDrift > 0 {
		if st, found := CheckDriftSLO(a.life.Calib.Report(), a.maxDrift); found {
			driftChecked = append(driftChecked, st)
			if !st.OK {
				driftViolations = append(driftViolations, st)
			}
		}
	}
	status, verdict := http.StatusOK, "ok"
	if len(violations) > 0 || len(driftViolations) > 0 {
		status, verdict = http.StatusServiceUnavailable, "slo-violated"
	}
	writeJSON(w, status, map[string]any{
		"status":                 verdict,
		"slo":                    checked,
		"violations":             violations,
		"calibration":            driftChecked,
		"calibration_violations": driftViolations,
	})
}
