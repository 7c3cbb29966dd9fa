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

// CheckSLO evaluates path's p99 request latency against p99Bound (seconds),
// reading the vista_http_request_seconds histogram out of reg. An endpoint
// with no recorded requests passes vacuously (found=false): absence of
// traffic is not an SLO violation, and probing must not mint empty series
// into the exposition.
func CheckSLO(reg *obs.Registry, path string, p99Bound float64) (st SLOStatus, found bool) {
	st = SLOStatus{Path: path, BoundSeconds: p99Bound, OK: true}
	h := reg.FindHistogram("vista_http_request_seconds", obs.Label{Key: "path", Value: path})
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

// CheckQueueWaitSLO evaluates the admission queue-wait p99 against the same
// bound the endpoint sweep uses, reading vista_admission_queue_wait_seconds.
// Like CheckSLO, an idle controller (no requests observed) passes vacuously.
func CheckQueueWaitSLO(reg *obs.Registry, p99Bound float64) (st SLOStatus, found bool) {
	st = SLOStatus{Path: "admission-queue", BoundSeconds: p99Bound, OK: true}
	h := reg.FindHistogram("vista_admission_queue_wait_seconds")
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
	for _, path := range a.paths {
		st, found := CheckSLO(a.metrics, path, a.sloP99)
		if !found {
			continue
		}
		checked = append(checked, st)
		if !st.OK {
			violations = append(violations, st)
		}
	}
	if a.life.Admit != nil {
		if st, found := CheckQueueWaitSLO(a.metrics, a.sloP99); found {
			checked = append(checked, st)
			if !st.OK {
				violations = append(violations, st)
			}
		}
	}
	var driftChecked, driftViolations []DriftStatus
	if a.maxDrift > 0 {
		driftChecked = CheckDriftSLO(a.life.Calib.Report(), a.maxDrift)
		for _, d := range driftChecked {
			if !d.OK {
				driftViolations = append(driftViolations, d)
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
