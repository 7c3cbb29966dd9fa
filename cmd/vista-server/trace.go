package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs/export"
)

// lookupRun resolves the ?run=ID query parameter against the retained run
// ring: no parameter means the most recent completed run. It writes the 404
// (listing the IDs still retained) itself and returns nil when nothing
// matches.
func (a *api) lookupRun(w http.ResponseWriter, r *http.Request) *runRecord {
	if id := r.URL.Query().Get("run"); id != "" {
		rec := a.runs.get(id)
		if rec == nil {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error":    fmt.Sprintf("run %q not retained (the ring keeps the newest %d completed runs)", id, a.runs.cap),
				"retained": a.runs.ids(),
			})
		}
		return rec
	}
	rec := a.runs.latest()
	if rec == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run completed yet (POST /run first)"))
	}
	return rec
}

// handleTrace serves a completed /run's span tree as a downloadable trace
// file: GET /trace/chrome (chrome://tracing / Perfetto loadable, with
// sampled counter tracks) or GET /trace/otlp (OTLP-style JSON spans).
// ?run=ID selects a retained run; default is the most recent.
func (a *api) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := a.lookupRun(w, r)
	if rec == nil {
		return
	}
	var body bytes.Buffer
	if err := export.WriteTrace(&body, r.PathValue("format"), rec.trace, rec.series); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = body.WriteTo(w)
}

// handleTimeseries serves a completed /run's sampled time series: JSON by
// default, CSV with ?format=csv. ?run=ID selects a retained run; default is
// the most recent.
func (a *api) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	rec := a.lookupRun(w, r)
	if rec == nil {
		return
	}
	if rec.series == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("run %s was not sampled", rec.id))
		return
	}
	switch format := r.URL.Query().Get("format"); strings.ToLower(format) {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = export.WriteTimeseriesCSV(w, rec.series)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = export.WriteTimeseriesJSON(w, rec.series)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown timeseries format %q (json or csv)", format))
	}
}
