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

// profileVersion is the file-format version SaveProfile writes and
// LoadProfile accepts. Version 1 carried one share-space factor per stage
// kind; version 2 carries only the storage factor.
const profileVersion = 2

// refit's guardrails.
const (
	// minSamples is the evidence floor: with fewer windowed storage samples
	// the factor keeps its prior value.
	minSamples = 3
	// minScale and maxScale clamp the fitted factor; an update landing
	// outside saturates at the bound instead of tracking a runaway fit.
	minScale, maxScale = 0.02, 50
	// hysteresis is the dead band on |ln(residual)|: a residual within it
	// leaves the factor (and the profile file) untouched, so one noisy run
	// cannot swing pricing back and forth.
	hysteresis = 0.10
)

// Profile is a fitted calibration profile: the feedback half of the drift
// observatory. It carries one factor, fitted from storage samples — the
// memory model's predicted bytes against the bytes the run's storage pool
// actually held — because bytes are what Algorithm 1 and admission price.
// CompareRun corrects the storage estimates through it (so the aggregates
// measure the *residual* error), and the same factor feeds optimizer plan
// choice and sim.AdmissionCost pricing (optimizer.Params.StorageScale).
//
// The JSON form is the on-disk profile file (SaveProfile/LoadProfile) and is
// embedded verbatim in the calibration report (Report.WithProfile), so the
// live /calibration endpoint and the offline vista -calib report stay
// byte-identical with a profile active.
type Profile struct {
	// Version is the file-format version (currently 2).
	Version int `json:"version"`
	// FittedAt stamps the refit that produced this profile.
	FittedAt time.Time `json:"fitted_at"`
	// Refits counts profile-changing refits since the loop started (an
	// unchanged refit — inside the hysteresis band — does not advance it,
	// and does not rewrite the file).
	Refits int64 `json:"refits"`
	// StorageScale multiplies every byte estimate of the Equation 16
	// intermediate sizes (1 = the paper model is right).
	StorageScale float64 `json:"storage_scale"`
	// Samples is the storage evidence the factor rests on: the samples in
	// the refit's evidence window.
	Samples int64 `json:"samples"`
}

// scale returns the profile's storage factor (1 when the profile is nil or
// its factor unset).
func (p *Profile) scale() float64 {
	if p == nil || p.StorageScale <= 0 {
		return 1
	}
	return p.StorageScale
}

// ApplySeries corrects the series report's predicted-byte fields by the
// storage factor, in place (nil profiles and nil reports are no-ops).
func (p *Profile) ApplySeries(rep *sim.SeriesReport) {
	f := p.scale()
	if rep == nil || f == 1 {
		return
	}
	rep.PredPeakStorageBytes = optimizer.ScaleBytes(rep.PredPeakStorageBytes, f)
	rep.PredSpillBytes = optimizer.ScaleBytes(rep.PredSpillBytes, f)
}

// refit folds a windowed storage residual fit into prev, producing the next
// profile: next = clamp(prev × suggested), unless the window holds fewer than
// minSamples samples or the residual sits inside the hysteresis band.
// Because the evidence was built from profile-corrected estimates
// (ApplySeries), ev.suggested is the *residual* correction on top of prev,
// and composing multiplicatively converges: estimates running h× too low
// converge on factor h, after which the residual is 1 and the profile stops
// moving. The evidence must be gathered *under* prev — the Fitter windows the
// aggregate per refit for exactly this reason (see Fitter.RefitNow).
//
// changed reports whether the factor moved; when false the returned profile
// is prev itself (possibly nil), so callers can skip the atomic swap and the
// disk write — the property the byte-identical live-vs-offline report gate
// relies on once the loop has converged.
func refit(prev *Profile, ev fitEvidence, now time.Time) (next *Profile, changed bool) {
	if ev.samples < minSamples || ev.suggested <= 0 || math.Abs(math.Log(ev.suggested)) <= hysteresis {
		return prev, false
	}
	cur := prev.scale()
	s := round6(math.Min(math.Max(cur*ev.suggested, minScale), maxScale))
	if s == cur {
		return prev, false
	}
	return &Profile{
		Version:      profileVersion,
		FittedAt:     now,
		Refits:       prev.refits() + 1,
		StorageScale: s,
		Samples:      ev.samples,
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

// LoadProfile reads a profile file written by SaveProfile. A file of any
// other version is rejected: a version-1 profile's per-kind time factors
// have no meaning under the storage-only model, so the operator deletes the
// file and lets an -auto-calibrate server refit it.
func LoadProfile(path string) (*Profile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("calib: profile %s: %w", path, err)
	}
	if p.Version != profileVersion {
		return nil, fmt.Errorf("calib: profile %s: unsupported version %d (want %d; delete the file and let an -auto-calibrate server refit it)",
			path, p.Version, profileVersion)
	}
	if p.StorageScale < 0 || math.IsNaN(p.StorageScale) || math.IsInf(p.StorageScale, 0) {
		return nil, fmt.Errorf("calib: profile %s: invalid storage scale %v", path, p.StorageScale)
	}
	return &p, nil
}
