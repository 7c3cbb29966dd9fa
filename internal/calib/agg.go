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

// kindAgg is one kind's rolling state. The EWMA is kept as a time-decayed
// weighted mean — (sumW, sumWX) with both decayed by 0.5^(Δt/halfLife)
// before each new unit-weight sample — which, unlike the classic
// w·prev + (1−w)·x recurrence, weighs same-timestamp samples equally and
// reproduces exactly from record timestamps on offline replay.
type kindAgg struct {
	samples  int64
	excluded int64
	sumW     float64
	sumWX    float64
	last     time.Time
	hist     []int64 // len(relErrBounds)+1; last bucket is +Inf
	// sumEstMeas/sumEstSq accumulate the least-squares scale fit
	// s = Σ(est·meas)/Σ(est²), the minimizer of Σ(meas − s·est)². They
	// decay with the same half-life as the EWMA: once a profile refit
	// changes what "estimated" means, pre-refit history must fade at the
	// same rate as the drift signal or the residual fit never converges.
	sumEstMeas float64
	sumEstSq   float64
}

// Aggregator folds calibration records into per-kind rolling aggregates.
// Safe for concurrent use (metrics callbacks read while runs write).
type Aggregator struct {
	mu       sync.Mutex
	halfLife time.Duration
	runs     int64
	kinds    map[Kind]*kindAgg
}

// NewAggregator returns an empty aggregator with the given EWMA half-life
// (<= 0 means DefaultHalfLife).
func NewAggregator(halfLife time.Duration) *Aggregator {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	a := &Aggregator{halfLife: halfLife, kinds: make(map[Kind]*kindAgg, len(Kinds))}
	for _, k := range Kinds {
		a.kinds[k] = &kindAgg{hist: make([]int64, len(relErrBounds)+1)}
	}
	return a
}

// Add folds one record into the aggregates. Decay is computed from the
// record's own timestamp, so replaying a log reproduces live state exactly.
func (a *Aggregator) Add(rec Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	for _, s := range rec.Samples {
		ka, ok := a.kinds[s.Kind]
		if !ok {
			continue // unknown kind: logged, never aggregated
		}
		if !s.counts() {
			ka.excluded++
			continue
		}
		if ka.samples > 0 {
			dt := rec.At.Sub(ka.last)
			if dt > 0 {
				d := math.Pow(0.5, dt.Seconds()/a.halfLife.Seconds())
				ka.sumW *= d
				ka.sumWX *= d
				ka.sumEstMeas *= d
				ka.sumEstSq *= d
			}
		}
		if rec.At.After(ka.last) {
			ka.last = rec.At
		}
		ka.sumW++
		ka.sumWX += math.Log(s.Meas / s.Est)
		ka.samples++
		rel := math.Abs(s.Meas/s.Est - 1)
		idx := len(relErrBounds)
		for i, ub := range relErrBounds {
			if rel <= ub {
				idx = i
				break
			}
		}
		ka.hist[idx]++
		ka.sumEstMeas += s.Est * s.Meas
		ka.sumEstSq += s.Est * s.Est
	}
}

// HistBucket is one relative-error histogram bucket; LE is the rendered
// upper bound ("0.1" ... "+Inf") — a string because +Inf has no JSON number.
type HistBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// StageAggregate is one kind's reported state. Zero-sample kinds report the
// identity calibration (drift ratio 1, scale 1).
type StageAggregate struct {
	Kind     string `json:"kind"`
	Samples  int64  `json:"samples"`
	Excluded int64  `json:"excluded"`
	// EWMALogRatio is the decayed mean of ln(measured/estimated).
	EWMALogRatio float64 `json:"ewma_log_ratio"`
	// DriftRatio is exp(EWMALogRatio): the multiplicative factor by which
	// measurements currently run versus estimates (1 = calibrated).
	DriftRatio float64 `json:"drift_ratio"`
	// Drift is the symmetric magnitude max(r, 1/r) − 1, the quantity
	// -max-drift bounds: 0.5 means "off by 1.5× in either direction".
	Drift float64 `json:"drift"`
	// SuggestedScale is the decayed least-squares scale s minimizing
	// Σ(meas − s·est)² over recent samples. For storage, with a profile
	// active, the estimates entering the fit are already profile-corrected,
	// so this is the *residual* correction a refit would multiply onto the
	// active factor (see Fitter.RefitNow); for the time kinds it is a
	// diagnosis only.
	SuggestedScale float64 `json:"suggested_scale"`
	// ActiveScale is the correction the active calibration profile
	// currently applies to this kind's estimates: the profile's factor for
	// storage, 1 for every time kind and whenever no profile is active; set
	// by Report.WithProfile.
	ActiveScale float64      `json:"active_scale"`
	RelErrHist  []HistBucket `json:"rel_err_hist"`
}

// Report is the full calibration report: what GET /calibration serves and
// vista -calib report reproduces offline.
type Report struct {
	Runs            int64            `json:"runs"`
	Samples         int64            `json:"samples"`
	HalfLifeSeconds float64          `json:"half_life_seconds"`
	Stages          []StageAggregate `json:"stages"`
	// Profile is the active calibration profile, when one is (see
	// WithProfile); omitted entirely for unprofiled reports so the PR-9 wire
	// format is unchanged.
	Profile *Profile `json:"profile,omitempty"`
}

// WithProfile annotates the report with the active profile p: the storage
// stage's ActiveScale becomes p's factor, and the profile itself is embedded.
// A nil p returns the report unchanged (ActiveScale stays 1). The stages
// slice is copied, so annotating a snapshot never mutates shared state.
func (r Report) WithProfile(p *Profile) Report {
	if p == nil {
		return r
	}
	stages := make([]StageAggregate, len(r.Stages))
	copy(stages, r.Stages)
	for i := range stages {
		if stages[i].Kind == string(KindStorage) {
			stages[i].ActiveScale = round6(p.scale())
		}
	}
	r.Stages = stages
	r.Profile = p
	return r
}

// Report snapshots the aggregates. Every kind is always present, in Kinds
// order; floats are rounded to 6 decimals so the wire format is stable
// enough to golden-test byte-for-byte.
func (a *Aggregator) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := Report{
		Runs:            a.runs,
		HalfLifeSeconds: a.halfLife.Seconds(),
		Stages:          make([]StageAggregate, 0, len(Kinds)),
	}
	for _, k := range Kinds {
		ka := a.kinds[k]
		st := StageAggregate{
			Kind: string(k), Samples: ka.samples, Excluded: ka.excluded,
			DriftRatio: 1, SuggestedScale: 1, ActiveScale: 1,
		}
		if ka.samples > 0 && ka.sumW > 0 {
			mean := ka.sumWX / ka.sumW
			r := math.Exp(mean)
			st.EWMALogRatio = round6(mean)
			st.DriftRatio = round6(r)
			st.Drift = round6(math.Max(r, 1/r) - 1)
		}
		if ka.sumEstSq > 0 {
			st.SuggestedScale = round6(ka.sumEstMeas / ka.sumEstSq)
		}
		st.RelErrHist = make([]HistBucket, len(ka.hist))
		for i := range relErrBounds {
			st.RelErrHist[i] = HistBucket{LE: formatBound(relErrBounds[i]), Count: ka.hist[i]}
		}
		st.RelErrHist[len(relErrBounds)] = HistBucket{LE: "+Inf", Count: ka.hist[len(relErrBounds)]}
		rep.Samples += ka.samples
		rep.Stages = append(rep.Stages, st)
	}
	return rep
}

// lsState is the storage kind's raw least-squares accumulator, snapshotted
// at a refit boundary. Because every sum decays by the same multiplicative
// factor, a snapshot can be decayed forward to a later snapshot's timestamp
// and subtracted out, leaving exactly the contribution of the samples
// recorded in between — the windowing fitSince builds on.
type lsState struct {
	samples    int64
	sumEstMeas float64
	sumEstSq   float64
	last       time.Time
}

// fitEvidence is a windowed residual fit: the least-squares scale restricted
// to samples recorded after a snapshot, plus how many there were. An unusable
// window reports zero samples and scale 1.
type fitEvidence struct {
	samples   int64
	suggested float64
}

// fitSince returns the storage kind's residual fit over samples recorded
// since base (the zero base means "since the beginning"), and the current
// snapshot a caller consuming the evidence should store as its next base.
// The Fitter uses this so each refit acts only on evidence gathered under the
// factor it is about to revise: refitting from the cumulative fit would
// re-apply history already absorbed into the profile and compound the
// correction past its fixed point.
func (a *Aggregator) fitSince(base lsState) (fitEvidence, lsState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ka := a.kinds[KindStorage]
	cur := lsState{samples: ka.samples, sumEstMeas: ka.sumEstMeas, sumEstSq: ka.sumEstSq, last: ka.last}
	em, ee := cur.sumEstMeas, cur.sumEstSq
	if base.samples > 0 {
		d := 1.0
		if dt := cur.last.Sub(base.last); dt > 0 {
			d = math.Pow(0.5, dt.Seconds()/a.halfLife.Seconds())
		}
		em -= d * base.sumEstMeas
		ee -= d * base.sumEstSq
	}
	e := fitEvidence{samples: cur.samples - base.samples, suggested: 1}
	if e.samples > 0 && ee > 0 && em > 0 {
		e.suggested = em / ee
	} else {
		e.samples = 0 // numerically empty window: no evidence
	}
	return e, cur
}

// driftOf reads one kind's live drift ratio (for the metrics gauge).
func (a *Aggregator) driftOf(k Kind) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	ka := a.kinds[k]
	if ka == nil || ka.samples == 0 || ka.sumW <= 0 {
		return 1
	}
	return math.Exp(ka.sumWX / ka.sumW)
}

// samplesOf reads one kind's live sample count (for the metrics counter).
func (a *Aggregator) samplesOf(k Kind) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	ka := a.kinds[k]
	if ka == nil {
		return 0
	}
	return ka.samples
}

// RegisterMetrics exposes the aggregates as scrape-time series:
// vista_calib_drift_ratio{stage} and vista_calib_samples_total{stage}, one
// instance per kind.
func (a *Aggregator) RegisterMetrics(reg *obs.Registry) {
	for _, k := range Kinds {
		k := k
		reg.GaugeFunc("vista_calib_drift_ratio",
			"Decayed mean measured/estimated ratio per stage kind (1 = calibrated).",
			func() float64 { return a.driftOf(k) },
			obs.Label{Key: "stage", Value: string(k)})
		reg.CounterFunc("vista_calib_samples_total",
			"Calibration samples folded into the rolling aggregates per stage kind.",
			func() float64 { return float64(a.samplesOf(k)) },
			obs.Label{Key: "stage", Value: string(k)})
	}
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
