package core

import "repro/internal/plan"

// Fingerprint is a run's sharing identity plus the election inputs a
// coalescer needs (internal/share): two specs with equal Model, WeightsSum,
// and DataSum materialize byte-identical feature tables under the same
// content addresses, so one Staged pass to the larger NumLayers covers both.
type Fingerprint struct {
	// Model, WeightsSum, and DataSum are the featurestore.Key prefix every
	// entry of this run shares.
	Model      string
	WeightsSum string
	DataSum    string
	// NumLayers is the spec's |L|; a group's member with the largest value
	// can lead the shared pass, because feature layers are selected top-down
	// (stats.TopLayerStats): every smaller member's layer set — and its
	// Staged chain's raw-carry chain — is a subset of the leader's emits.
	NumLayers int
	// InferenceFLOPs estimates the run's total partial-inference compute
	// (plan FLOPs per image × image rows): what a follower saves by
	// attaching instead of executing.
	InferenceFLOPs int64
}

// ShareFingerprint computes spec's sharing identity. ok is false when the
// run cannot safely share an inference pass: non-Staged plans (Eager/Lazy
// emit different step structures) execute solo, as do specs that fail
// validation or weight realization.
func ShareFingerprint(spec Spec) (fp Fingerprint, ok bool) {
	if spec.PlanKind != plan.Staged {
		return Fingerprint{}, false
	}
	id, err := spec.identity()
	if err != nil {
		return Fingerprint{}, false
	}
	weightsSum, dataSum, err := id.Sums()
	if err != nil {
		return Fingerprint{}, false
	}
	return Fingerprint{
		Model:          id.Model.Name,
		WeightsSum:     weightsSum,
		DataSum:        dataSum,
		NumLayers:      spec.NumLayers,
		InferenceFLOPs: id.Plan.TotalInferenceFLOPs() * int64(len(spec.ImageRows)),
	}, true
}
