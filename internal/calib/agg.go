package calib

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultHalfLife is the decay half-life of the drift EWMA: a sample's
// weight halves every 30 minutes of record time, so the report tracks the
// last hour or so of traffic rather than averaging over the log's lifetime.
const DefaultHalfLife = 30 * time.Minute

// relErrBounds are the relative-error histogram bucket upper bounds on
// |measured/estimated − 1|: within 10%, 25%, 50%, 2×, 3×, 6×, beyond.
var relErrBounds = []float64{0.1, 0.25, 0.5, 1, 2, 5}

// Aggregator folds calibration records into the rolling storage aggregates.
// The EWMA is kept as a time-decayed weighted mean — (sumW, sumWX) with both
// decayed by 0.5^(Δt/DefaultHalfLife) before each new unit-weight sample —
// which, unlike the classic w·prev + (1−w)·x recurrence, weighs
// same-timestamp samples equally and reproduces exactly from record
// timestamps on offline replay. Safe for concurrent use (metrics callbacks read while runs write).
type Aggregator struct {
	mu       sync.Mutex
	runs     int64
	excluded int64
	sumW     float64
	sumWX    float64
	hist     []int64 // len(relErrBounds)+1; last bucket is +Inf
	nsamples int64
	// sumEstMeas and sumEstSq accumulate the least-squares scale fit
	// s = Σ(est·meas)/Σ(est²), the minimizer of Σ(meas − s·est)². They decay
	// with the same half-life as the EWMA, so the fit tracks the same recent
	// traffic as the drift signal.
	sumEstMeas, sumEstSq float64
	// last is the newest record timestamp folded in; decay runs from it.
	last time.Time
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{hist: make([]int64, len(relErrBounds)+1)}
}

// Add folds one record into the aggregates. Decay is computed from the
// record's own timestamp, so replaying a log reproduces live state exactly.
func (a *Aggregator) Add(rec Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	for _, s := range rec.Samples {
		if !s.counts() {
			a.excluded++
			continue
		}
		if a.nsamples > 0 {
			if dt := rec.At.Sub(a.last); dt > 0 {
				d := math.Pow(0.5, dt.Seconds()/DefaultHalfLife.Seconds())
				a.sumW *= d
				a.sumWX *= d
				a.sumEstMeas *= d
				a.sumEstSq *= d
			}
		}
		if rec.At.After(a.last) {
			a.last = rec.At
		}
		a.sumW++
		a.sumWX += math.Log(s.Meas / s.Est)
		a.nsamples++
		rel := math.Abs(s.Meas/s.Est - 1)
		idx := len(relErrBounds)
		for i, ub := range relErrBounds {
			if rel <= ub {
				idx = i
				break
			}
		}
		a.hist[idx]++
		a.sumEstMeas += s.Est * s.Meas
		a.sumEstSq += s.Est * s.Est
	}
}

// HistBucket is one relative-error histogram bucket; LE is the rendered
// upper bound ("0.1" ... "+Inf") — a string because +Inf has no JSON number.
type HistBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// Report is the full calibration report: what GET /calibration serves and
// vista -calib report reproduces offline. With no samples it reports the
// identity calibration (drift ratio 1, scale 1).
type Report struct {
	Runs int64 `json:"runs"`
	// Samples counts the storage samples folded into the aggregates;
	// Excluded those logged but kept out (attach-served runs, empty sides).
	Samples         int64   `json:"samples"`
	Excluded        int64   `json:"excluded"`
	HalfLifeSeconds float64 `json:"half_life_seconds"`
	// EWMALogRatio is the decayed mean of ln(measured/estimated).
	EWMALogRatio float64 `json:"ewma_log_ratio"`
	// DriftRatio is exp(EWMALogRatio): the multiplicative factor by which
	// measured bytes currently run versus estimates (1 = calibrated).
	DriftRatio float64 `json:"drift_ratio"`
	// Drift is the symmetric magnitude max(r, 1/r) − 1, the quantity
	// -max-drift bounds: 0.5 means "off by 1.5× in either direction".
	Drift float64 `json:"drift"`
	// SuggestedScale is the decayed least-squares scale s minimizing
	// Σ(meas − s·est)² over recent samples: the factor the estimates would
	// need to match the measurements.
	SuggestedScale float64      `json:"suggested_scale"`
	RelErrHist     []HistBucket `json:"rel_err_hist"`
}

// Report snapshots the aggregates; floats are rounded to 6 decimals so the
// wire format is stable enough to golden-test byte-for-byte.
func (a *Aggregator) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := Report{
		Runs:            a.runs,
		Samples:         a.nsamples,
		Excluded:        a.excluded,
		HalfLifeSeconds: DefaultHalfLife.Seconds(),
		DriftRatio:      1, SuggestedScale: 1,
	}
	if a.nsamples > 0 && a.sumW > 0 {
		mean := a.sumWX / a.sumW
		r := math.Exp(mean)
		rep.EWMALogRatio = round6(mean)
		rep.DriftRatio = round6(r)
		rep.Drift = round6(math.Max(r, 1/r) - 1)
	}
	if a.sumEstSq > 0 {
		rep.SuggestedScale = round6(a.sumEstMeas / a.sumEstSq)
	}
	rep.RelErrHist = make([]HistBucket, len(a.hist))
	for i, b := range relErrBounds {
		rep.RelErrHist[i] = HistBucket{LE: formatBound(b), Count: a.hist[i]}
	}
	rep.RelErrHist[len(relErrBounds)] = HistBucket{LE: "+Inf", Count: a.hist[len(relErrBounds)]}
	return rep
}

// drift reads the live drift ratio (for the metrics gauge).
func (a *Aggregator) drift() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.nsamples == 0 || a.sumW <= 0 {
		return 1
	}
	return math.Exp(a.sumWX / a.sumW)
}

// samples reads the live sample count (for the metrics counter).
func (a *Aggregator) samples() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nsamples
}

// storageLabel labels the calibration series on /metrics: storage is the one
// kind calibrated, and the label keeps the series' names stable.
var storageLabel = obs.Label{Key: "stage", Value: "storage"}

// RegisterMetrics exposes the aggregates as scrape-time series:
// vista_calib_drift_ratio{stage="storage"} and
// vista_calib_samples_total{stage="storage"}.
func (a *Aggregator) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("vista_calib_drift_ratio",
		"Decayed mean measured/estimated storage-byte ratio (1 = calibrated).",
		a.drift, storageLabel)
	reg.CounterFunc("vista_calib_samples_total",
		"Storage calibration samples folded into the rolling aggregates.",
		func() float64 { return float64(a.samples()) }, storageLabel)
}

// formatBound renders a histogram bound the way Prometheus renders le
// labels.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// round6 rounds to 6 decimals: report floats are presentation values, and a
// fixed precision keeps the golden-tested JSON stable across platforms.
func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}
