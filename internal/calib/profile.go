package calib

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/durable"
	"repro/internal/optimizer"
	"repro/internal/sim"
)

// FaultProfileSave is the failpoint base site for the atomic profile write
// (sub-sites ".create", ".write", ".rename" — see durable.WriteFileAtomic).
const FaultProfileSave = "calib/profile"

// ProfileScale is one stage kind's fitted correction inside a Profile.
type ProfileScale struct {
	// Kind is the stage kind the factor applies to.
	Kind string `json:"kind"`
	// Scale multiplies every estimate the cost model attributes to Kind
	// (1 = the paper constant is right).
	Scale float64 `json:"scale"`
	// Samples is the kind's sample count at fit time — the evidence the
	// factor rests on (for Fitter-produced profiles, the samples in the
	// refit's evidence window rather than the lifetime total).
	Samples int64 `json:"samples"`
}

// Profile is a fitted calibration profile: the feedback half of the drift
// observatory. Where the Report's SuggestedScale is a read-only diagnosis,
// a Profile is the prescription actually applied — CompareRun corrects the
// simulator's estimates through it (so the aggregates measure the *residual*
// error), and CostScales feeds the same factors into optimizer plan choice
// and sim.AdmissionCost pricing.
//
// The JSON form is the on-disk profile file (SaveProfile/LoadProfile) and is
// embedded verbatim in the calibration report (Report.WithProfile), so the
// live /calibration endpoint and the offline vista -calib report stay
// byte-identical with a profile active.
type Profile struct {
	// Version is the file-format version (currently 1).
	Version int `json:"version"`
	// FittedAt stamps the refit that produced this profile.
	FittedAt time.Time `json:"fitted_at"`
	// Refits counts profile-changing refits since the loop started (an
	// unchanged refit — everything inside the hysteresis band — does not
	// advance it, and does not rewrite the file).
	Refits int64 `json:"refits"`
	// Scales holds one entry per kind, in Kinds order.
	Scales []ProfileScale `json:"scales"`
}

// ScaleFor returns the profile's factor for kind k (1 when the profile is
// nil, the kind is absent, or its factor is unset).
func (p *Profile) ScaleFor(k Kind) float64 {
	if p == nil {
		return 1
	}
	for _, s := range p.Scales {
		if Kind(s.Kind) == k && s.Scale > 0 {
			return s.Scale
		}
	}
	return 1
}

// CostScales renders the profile as the optimizer's per-kind corrections,
// ready to assign to optimizer.Params.Scales (or core.Spec.CostScales). A
// nil profile yields the identity.
func (p *Profile) CostScales() optimizer.CostScales {
	return optimizer.CostScales{
		Ingest:  p.ScaleFor(KindIngest),
		Join:    p.ScaleFor(KindJoin),
		Infer:   p.ScaleFor(KindInfer),
		Train:   p.ScaleFor(KindTrain),
		Storage: p.ScaleFor(KindStorage),
	}
}

// ApplyComparisons corrects each comparison's estimate by the profile's
// factor for its stage kind, in place. Applying the profile *before* samples
// are built is what closes the loop: the aggregates then accumulate the
// residual measured/corrected-estimate ratio, so a later Refit multiplies
// the current factors by the residual instead of re-deriving them from raw
// history. Nil profiles are no-ops.
func (p *Profile) ApplyComparisons(comps []sim.StageComparison) {
	if p == nil {
		return
	}
	for i := range comps {
		k, ok := KindOf(comps[i].Stage)
		if !ok {
			continue
		}
		if f := p.ScaleFor(k); f != 1 {
			comps[i].Estimated = scaleDuration(comps[i].Estimated, f)
		}
	}
}

// ApplySeries corrects the series report's predicted-byte fields by the
// Storage factor, in place (nil profiles and nil reports are no-ops).
func (p *Profile) ApplySeries(rep *sim.SeriesReport) {
	if p == nil || rep == nil {
		return
	}
	f := p.ScaleFor(KindStorage)
	if f == 1 {
		return
	}
	rep.PredPeakStorageBytes = optimizer.ScaleBytes(rep.PredPeakStorageBytes, f)
	rep.PredSpillBytes = optimizer.ScaleBytes(rep.PredSpillBytes, f)
	for i := range rep.Stages {
		rep.Stages[i].PredStorageBytes = optimizer.ScaleBytes(rep.Stages[i].PredStorageBytes, f)
		rep.Stages[i].PredSpillBytes = optimizer.ScaleBytes(rep.Stages[i].PredSpillBytes, f)
	}
}

// FitOptions are Refit's guardrails.
type FitOptions struct {
	// MinSamples is the evidence floor: a kind with fewer aggregate samples
	// keeps its prior factor untouched.
	MinSamples int64
	// MinScale/MaxScale clamp every fitted factor; an update that lands
	// outside saturates at the bound instead of tracking a runaway fit.
	MinScale, MaxScale float64
	// Hysteresis is the dead band on |ln(residual scale)|: a suggested
	// residual within it leaves the factor (and the profile file) untouched,
	// so one noisy run cannot swing pricing back and forth. Zero means the
	// default band; pass a negative value to disable the dead band entirely.
	Hysteresis float64
}

// DefaultFitOptions returns the production guardrails: a 3-sample floor,
// factors clamped to [0.02, 50], and a ~10% hysteresis band.
func DefaultFitOptions() FitOptions {
	return FitOptions{MinSamples: 3, MinScale: 0.02, MaxScale: 50, Hysteresis: 0.10}
}

// normalize fills unset guardrails with the defaults.
func (o FitOptions) normalize() FitOptions {
	d := DefaultFitOptions()
	if o.MinSamples <= 0 {
		o.MinSamples = d.MinSamples
	}
	if o.MinScale <= 0 {
		o.MinScale = d.MinScale
	}
	if o.MaxScale <= 0 {
		o.MaxScale = d.MaxScale
	}
	switch {
	case o.Hysteresis == 0:
		o.Hysteresis = d.Hysteresis
	case o.Hysteresis < 0:
		o.Hysteresis = 0
	}
	return o
}

// Refit folds a calibration report's least-squares residuals into prev,
// producing the next profile: per kind, next = clamp(prev × suggested)
// subject to the FitOptions guardrails. Because the report was built from
// profile-corrected estimates (ApplyComparisons), SuggestedScale is the
// *residual* correction on top of prev, and composing multiplicatively makes
// the loop a convergent fixed-point iteration: a kind whose estimates run h×
// too low converges on factor h, after which the residual is 1 and the
// profile stops moving. Loop callers must feed evidence gathered *under*
// prev — the Fitter windows the aggregates per refit for exactly this reason
// (see Fitter.RefitNow); one-shot offline fits from a replayed report pass
// prev = nil, where the cumulative report is the right evidence.
//
// changed reports whether any factor moved; when false the returned profile
// is prev itself (possibly nil), so callers can skip the atomic swap and the
// disk write — the property the byte-identical live-vs-offline report gate
// relies on once the loop has converged.
func Refit(prev *Profile, rep Report, now time.Time, opts FitOptions) (next *Profile, changed bool) {
	opts = opts.normalize()
	byKind := make(map[string]StageAggregate, len(rep.Stages))
	for _, st := range rep.Stages {
		byKind[st.Kind] = st
	}
	scales := make([]ProfileScale, 0, len(Kinds))
	for _, k := range Kinds {
		st := byKind[string(k)]
		cur := prev.ScaleFor(k)
		out := ProfileScale{Kind: string(k), Scale: cur, Samples: st.Samples}
		if st.Samples >= opts.MinSamples && st.SuggestedScale > 0 &&
			math.Abs(math.Log(st.SuggestedScale)) > opts.Hysteresis {
			s := cur * st.SuggestedScale
			if s < opts.MinScale {
				s = opts.MinScale
			}
			if s > opts.MaxScale {
				s = opts.MaxScale
			}
			out.Scale = round6(s)
		}
		if out.Scale != cur {
			changed = true
		}
		scales = append(scales, out)
	}
	if !changed {
		return prev, false
	}
	return &Profile{
		Version:  1,
		FittedAt: now,
		Refits:   prev.refits() + 1,
		Scales:   scales,
	}, true
}

// refits is prev.Refits, nil-safe.
func (p *Profile) refits() int64 {
	if p == nil {
		return 0
	}
	return p.Refits
}

// SaveProfile atomically writes p as JSON to path (temp file + rename, the
// same crash-safe discipline as the calibration log's recovery rewrite).
func SaveProfile(path string, p *Profile) error {
	blob, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("calib: encode profile: %w", err)
	}
	return durable.WriteFileAtomic(FaultProfileSave, path, append(blob, '\n'))
}

// LoadProfile reads a profile file written by SaveProfile.
func LoadProfile(path string) (*Profile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("calib: profile %s: %w", path, err)
	}
	if p.Version != 1 {
		return nil, fmt.Errorf("calib: profile %s: unsupported version %d", path, p.Version)
	}
	for _, s := range p.Scales {
		if s.Scale < 0 || math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) {
			return nil, fmt.Errorf("calib: profile %s: invalid scale %v for kind %q", path, s.Scale, s.Kind)
		}
	}
	return &p, nil
}
