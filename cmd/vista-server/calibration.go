package main

import (
	"net/http"

	"repro/internal/calib"
)

// handleCalibration serves the cost model's rolling drift report: JSON by
// default (the golden-tested wire format vista -calib report reproduces
// offline, including the active-profile annotation when one is set), an
// aligned text table with ?format=text.
func (a *api) handleCalibration(w http.ResponseWriter, r *http.Request) {
	rep := a.life.Calib.Report().WithProfile(a.life.Fitter.Active())
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

// DriftStatus is the storage kind's drift SLO evaluation, the calibration
// analogue of SLOStatus.
type DriftStatus struct {
	Stage string `json:"stage"`
	// DriftRatio and Drift mirror the /calibration report's fields; OK is
	// Drift <= Bound.
	DriftRatio float64 `json:"drift_ratio"`
	Drift      float64 `json:"drift"`
	Bound      float64 `json:"bound"`
	Samples    int64   `json:"samples"`
	OK         bool    `json:"ok"`
}

// CheckDriftSLO evaluates the storage kind's EWMA drift against bound:
// storage is the only kind pricing reads, so it is the only kind whose drift
// is actionable. The time kinds stay on /calibration and /metrics. Storage
// with no samples passes vacuously (absent evidence is not drift), matching
// CheckSLO's treatment of traffic-free endpoints.
func CheckDriftSLO(rep calib.Report, bound float64) (checked []DriftStatus) {
	for _, st := range rep.Stages {
		if st.Kind != string(calib.KindStorage) || st.Samples == 0 {
			continue
		}
		checked = append(checked, DriftStatus{
			Stage:      st.Kind,
			DriftRatio: st.DriftRatio,
			Drift:      st.Drift,
			Bound:      bound,
			Samples:    st.Samples,
			OK:         st.Drift <= bound,
		})
	}
	return checked
}
