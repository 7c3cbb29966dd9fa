package calib

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Config assembles a Recorder. The zero value is valid: in-memory aggregates
// only, wall clock.
type Config struct {
	// Path is the on-disk calibration log ("" = aggregates only, nothing
	// persisted).
	Path string
	// Clock stamps records (nil = wall clock); tests inject a fake so decay
	// is deterministic.
	Clock clock.Clock
}

// Recorder owns one process's calibration state: the append-only log (when
// configured) plus the rolling aggregates. Opening a path with history
// replays it, so a restarted server resumes its aggregates instead of
// starting blind.
type Recorder struct {
	clk clock.Clock
	agg *Aggregator

	mu  sync.Mutex
	log *Log // nil = memory-only
}

// Open builds a Recorder from cfg, replaying any existing log at cfg.Path
// into the aggregates. With an empty Path it cannot fail.
func Open(cfg Config) (*Recorder, error) {
	r := &Recorder{clk: clock.Or(cfg.Clock), agg: NewAggregator()}
	if cfg.Path != "" {
		l, err := OpenLog(cfg.Path)
		if err != nil {
			return nil, err
		}
		r.log = l
		for _, rec := range l.Records() {
			r.agg.Add(rec)
		}
	}
	return r, nil
}

// Record stamps one run's samples with the recorder clock, folds them into
// the aggregates, and appends them to the log. The aggregates are updated
// even when the append fails — losing a disk write should not blind the
// live drift signal — and the append error is returned for the caller to
// surface.
func (r *Recorder) Record(fingerprint string, samples []Sample) error {
	rec := Record{At: r.clk.Now(), Fingerprint: fingerprint, Samples: samples}
	r.agg.Add(rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	return r.log.Append(rec)
}

// Report snapshots the rolling aggregates.
func (r *Recorder) Report() Report { return r.agg.Report() }

// RegisterMetrics exposes the aggregates on reg (see Aggregator.RegisterMetrics).
func (r *Recorder) RegisterMetrics(reg *obs.Registry) { r.agg.RegisterMetrics(reg) }

// Close closes the log, if any.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	err := r.log.Close()
	r.log = nil
	return err
}

// ReplayReport reads the log at path and folds every record into a fresh
// aggregator — the offline path (vista -calib report) that must reproduce a
// live server's /calibration byte-for-byte from the same log. droppedBytes
// reports any unreadable tail.
func ReplayReport(path string) (rep Report, droppedBytes int, err error) {
	recs, dropped, err := ReadLog(path)
	if err != nil {
		return Report{}, 0, err
	}
	agg := NewAggregator()
	for _, rec := range recs {
		agg.Add(rec)
	}
	return agg.Report(), dropped, nil
}

// WriteReportJSON encodes rep exactly the way GET /calibration does (one
// trailing newline, no indentation), so the offline CLI's -calib-json output
// diffs clean against the endpoint.
func WriteReportJSON(w io.Writer, rep Report) error {
	return json.NewEncoder(w).Encode(rep)
}

// RenderReport writes the report as an aligned operator-readable table: the
// storage sample counts, drift, the suggested scale, and the
// relative-error histogram counts.
func RenderReport(w io.Writer, rep Report) {
	fmt.Fprintf(w, "calibration: %d runs, %d samples, half-life %s\n",
		rep.Runs, rep.Samples, time.Duration(rep.HalfLifeSeconds*float64(time.Second)))
	hist := make([]string, len(rep.RelErrHist))
	for i, b := range rep.RelErrHist {
		hist[i] = fmt.Sprint(b.Count)
	}
	fmt.Fprintf(w, "%8s %9s %12s %12s %8s  %s\n",
		"samples", "excluded", "drift-ratio", "drift", "scale", "|err| <=10% <=25% <=50% <=2x <=3x <=6x >6x")
	fmt.Fprintf(w, "%8d %9d %12.4f %12.4f %8.3f  %s\n",
		rep.Samples, rep.Excluded, rep.DriftRatio, rep.Drift,
		rep.SuggestedScale, strings.Join(hist, " "))
}
