package main

import (
	"net/http"

	"repro/internal/calib"
)

// handleCalibration serves the cost model's rolling drift report: JSON by
// default (the golden-tested wire format vista -calib report reproduces
// offline), an aligned text table with ?format=text.
func (a *api) handleCalibration(w http.ResponseWriter, r *http.Request) {
	rep := a.life.Calib.Report()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		calib.RenderReport(w, rep)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = calib.WriteReportJSON(w, rep)
}

// DriftStatus is the storage drift SLO evaluation, the calibration analogue
// of SLOStatus.
type DriftStatus struct {
	// DriftRatio and Drift mirror the /calibration report's fields; OK is
	// Drift <= Bound.
	DriftRatio float64 `json:"drift_ratio"`
	Drift      float64 `json:"drift"`
	Bound      float64 `json:"bound"`
	Samples    int64   `json:"samples"`
	OK         bool    `json:"ok"`
}

// CheckDriftSLO evaluates the storage EWMA drift against bound. A report
// with no samples passes vacuously (found=false): absent evidence is not
// drift, matching CheckSLO's treatment of traffic-free endpoints.
func CheckDriftSLO(rep calib.Report, bound float64) (st DriftStatus, found bool) {
	if rep.Samples == 0 {
		return DriftStatus{Bound: bound, OK: true}, false
	}
	return DriftStatus{
		DriftRatio: rep.DriftRatio,
		Drift:      rep.Drift,
		Bound:      bound,
		Samples:    rep.Samples,
		OK:         rep.Drift <= bound,
	}, true
}
