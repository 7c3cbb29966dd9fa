// Package calib is the cost model's drift observatory: it accumulates
// estimate-vs-measured evidence across runs so systematic mis-pricing in the
// Section 4.1 cost model — the thing sim.AdmissionCost gates real traffic on
// — becomes a visible, alertable signal instead of something an operator
// eyeballs in a single -trace table.
//
// After every run, the per-stage (estimated, measured) pairs from
// sim.CompareTrace and the run's peak-storage and spill pairs from
// sim.CompareSeries (the model against the engine's exact counters) are
// folded into two places:
//
//   - an append-only, crash-safe on-disk calibration log (one compact record
//     per run: fingerprint, per-stage kind, estimate, measurement,
//     cached/shared/unmodeled flags), and
//   - in-memory rolling aggregates per stage kind (ingest/join/infer/train/
//     storage): a time-decayed EWMA of the log-ratio measured/estimated,
//     relative-error histograms, sample counts, and a least-squares
//     per-kind scale factor.
//
// Only storage feeds back. The memory model is what Algorithm 1 and
// admission price, and storage samples compare its byte predictions with the
// bytes a run's storage pool actually held, so a Fitter refits one storage
// factor (a Profile) from them and pricing applies it. The time kinds are
// observed and reported, never fitted.
//
// Units: the simulator prices the paper's cluster while the engine runs a
// scaled-down in-process replica, so absolute stage *times* differ by orders
// of magnitude by design. Time samples are therefore normalized to shares of
// their run (stage seconds divided by the run's total, on each side
// independently) before they enter a record: the calibration pair compares
// the *shape* of the cost model against the measured shape, which is the
// scale-free signal sim's own comparison renderers document. A uniform
// mis-scale across every stage is invisible by construction; a mis-priced
// single stage (the realistic failure) shifts its share and registers as
// drift. Storage samples stay in absolute bytes: the memory model's
// predictions are built from the measured workload's own row counts and
// image bytes, so bytes are directly comparable — which is why storage is
// the one kind a profile corrects.
//
// Decay runs on record timestamps, not the wall clock, so replaying a
// persisted log offline (vista -calib report) reproduces the live
// aggregates exactly, and fake-clock tests need no sleeps.
package calib

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/sampler"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Kind buckets stage labels into the cost-model components the aggregates
// track. Every "<name>:<layer>" span label maps onto one kind via KindOf.
type Kind string

// The five stage kinds. Infer covers partial-CNN inference however it is
// served (infer, premat, cache attach, share attach); Storage covers the
// memory model's byte predictions rather than a time component.
const (
	KindIngest  Kind = "ingest"
	KindJoin    Kind = "join"
	KindInfer   Kind = "infer"
	KindTrain   Kind = "train"
	KindStorage Kind = "storage"
)

// Kinds lists every kind in report order.
var Kinds = []Kind{KindIngest, KindJoin, KindInfer, KindTrain, KindStorage}

// KindOf maps a stage label ("ingest", "infer:fc6", "storage:peak", ...)
// onto its kind; ok is false for labels no kind models.
func KindOf(stage string) (Kind, bool) {
	name, _, _ := strings.Cut(stage, ":")
	switch name {
	case "ingest":
		return KindIngest, true
	case "join":
		return KindJoin, true
	case "infer", "premat", "cache", "shared":
		return KindInfer, true
	case "train":
		return KindTrain, true
	case "storage":
		return KindStorage, true
	}
	return "", false
}

// Sample is one (estimated, measured) calibration pair. For time stages the
// values are shares of the run (see the package comment); for storage stages
// they are bytes. A sample with Cached, Shared, or Unmodeled set — or a
// non-positive side — is logged for the record but excluded from aggregates:
// an attach is not the inference the estimate prices, and an unmodeled label
// has no estimate at all.
type Sample struct {
	// Stage is the span label ("ingest", "infer:fc6", "storage:peak", ...).
	Stage string
	// Kind is the aggregate bucket; "" when the label is unmodeled.
	Kind Kind
	// Est and Meas are the calibration pair (shares for time, bytes for
	// storage).
	Est, Meas float64
	// Cached/Shared/Unmodeled mirror sim.StageComparison's flags.
	Cached, Shared, Unmodeled bool
}

// counts reports whether the sample enters the rolling aggregates.
func (s Sample) counts() bool {
	return !s.Cached && !s.Shared && !s.Unmodeled && s.Est > 0 && s.Meas > 0
}

// SamplesFromRun flattens one run's comparison rows (and, when non-nil, its
// series report) into calibration samples, normalizing time rows to shares of
// their run. Only rows that will enter the aggregates participate in the
// share denominators, so an attach-served (cached/shared) stage does not
// dilute the shape of the rows actually being compared. The storage samples
// carry the run's attach flags: the memory model prices a cold run, and a run
// that attached any feature table from the store or a share group held less.
func SamplesFromRun(comps []sim.StageComparison, series *sim.SeriesReport) []Sample {
	var estTotal, measTotal float64
	var cached, shared bool
	include := make([]bool, len(comps))
	for i, c := range comps {
		cached = cached || c.Cached
		shared = shared || c.Shared
		if c.Cached || c.Shared || c.Unmodeled || c.Estimated <= 0 || c.Measured <= 0 {
			continue
		}
		include[i] = true
		estTotal += c.Estimated.Seconds()
		measTotal += c.Measured.Seconds()
	}
	out := make([]Sample, 0, len(comps)+2)
	for i, c := range comps {
		k, _ := KindOf(c.Stage)
		s := Sample{
			Stage: c.Stage, Kind: k,
			Est: c.Estimated.Seconds(), Meas: c.Measured.Seconds(),
			Cached: c.Cached, Shared: c.Shared, Unmodeled: c.Unmodeled,
		}
		if include[i] {
			s.Est /= estTotal
			s.Meas /= measTotal
		}
		out = append(out, s)
	}
	if series != nil {
		storage := func(stage string, est, meas int64) {
			if est > 0 || meas > 0 {
				out = append(out, Sample{
					Stage: stage, Kind: KindStorage,
					Est: float64(est), Meas: float64(meas),
					Cached: cached, Shared: shared,
				})
			}
		}
		storage("storage:peak", series.PredPeakStorageBytes, series.MeasPeakStorageBytes)
		storage("storage:spill", series.PredSpillBytes, series.MeasSpillBytes)
	}
	return out
}

// RunEnv describes one measured run's workload shape, enough to rebuild the
// simulator workload its trace is compared against. EnvFromSpec derives it
// from the run's actual rows, so the memory model's byte predictions line up
// with what really ran.
type RunEnv struct {
	ModelName string
	Dataset   string
	// Rows/StructDim/ImageRowBytes describe the measured dataset (average
	// image-row bytes; a sample of the first rows suffices).
	Rows          int
	StructDim     int
	ImageRowBytes int64
	PlanKind      plan.Kind
	Placement     plan.JoinPlacement
	Nodes, Cores  int
	MemBytes      int64
	// Profile, when non-nil, is the active calibration profile: storage
	// estimates are corrected through it before samples are built, so the
	// recorded storage samples measure the residual error the next refit
	// should act on.
	Profile *Profile
}

// EnvFromSpec derives the RunEnv of a run executed from spec over the named
// dataset preset: the workload shape is read off the rows that actually ran
// (row count, structured width, sampled image-row bytes), so the memory
// model's byte predictions line up with the measurement. Profile is left for
// the caller to set.
func EnvFromSpec(spec core.Spec, dataset string) RunEnv {
	env := RunEnv{
		ModelName:     spec.ModelName,
		Dataset:       dataset,
		Rows:          len(spec.StructRows),
		ImageRowBytes: spec.AvgImageBytes(),
		PlanKind:      spec.PlanKind,
		Placement:     spec.Placement,
		Nodes:         spec.Nodes,
		Cores:         spec.CoresPerNode,
		MemBytes:      spec.MemPerNode,
	}
	if len(spec.StructRows) > 0 {
		env.StructDim = len(spec.StructRows[0].Structured)
	}
	return env
}

// Simulate prices env's workload, exploring numLayers feature layers, on the
// paper cluster profile under the configuration Vista's optimizer picks with
// env.Profile's storage factor — the decision core.Run executed under the
// same profile. It fails when the optimizer finds the simulated workload
// infeasible or the simulated run crashes — there is no estimate to compare
// against (tiny in-process runs can describe workloads the paper cluster
// model rejects).
func Simulate(env RunEnv, numLayers int) (sim.Result, error) {
	wl, err := sim.NewWorkload(sim.WorkloadSpec{
		ModelName: env.ModelName,
		NumLayers: numLayers,
		Dataset: sim.DatasetSpec{
			Name:          env.Dataset,
			Rows:          env.Rows,
			StructDim:     env.StructDim,
			ImageRowBytes: env.ImageRowBytes,
		},
		PlanKind:  env.PlanKind,
		Placement: env.Placement,
		Nodes:     env.Nodes,
		CPUSys:    env.Cores,
		MemSys:    env.MemBytes,
	})
	if err != nil {
		return sim.Result{}, fmt.Errorf("calib: workload: %w", err)
	}
	params := optimizer.DefaultParams()
	params.StorageScale = env.Profile.scale()
	d, err := optimizer.Optimize(wl.Inputs, params)
	if err != nil {
		return sim.Result{}, fmt.Errorf("calib: config: %w", err)
	}
	prof := sim.PaperCluster().WithNodes(env.Nodes)
	prof.MemPerNode = env.MemBytes
	simRes := sim.Run(wl, sim.FromDecision(d, params), prof)
	if simRes.Crash != nil {
		return sim.Result{}, fmt.Errorf("calib: simulated run crashes: %w", simRes.Crash)
	}
	return simRes, nil
}

// CompareRun simulates env's workload (Simulate, stage-for-stage with the
// layers the trace shows were explored), lines the result up against the
// measured trace (and, when series is non-nil, the engine's peak storage and
// spill in its final frame), and returns the run's calibration samples.
func CompareRun(env RunEnv, trace *obs.Span, series *sampler.Recording) ([]Sample, error) {
	if trace == nil {
		return nil, fmt.Errorf("calib: no trace to compare")
	}
	simRes, err := Simulate(env, countInferStages(trace))
	if err != nil {
		return nil, err
	}
	comps := sim.CompareTrace(simRes, trace)
	if series != nil {
		rep := sim.CompareSeries(simRes, trace, series)
		env.Profile.ApplySeries(&rep)
		return SamplesFromRun(comps, &rep), nil
	}
	return SamplesFromRun(comps, nil), nil
}

// countInferStages counts how many feature layers the measured run actually
// explored, so the simulated workload matches the trace stage-for-stage.
func countInferStages(trace *obs.Span) int {
	n := 0
	for _, sp := range trace.Children() {
		name, _, _ := strings.Cut(sp.Name(), ":")
		switch name {
		case "infer", "premat", "cache", "shared":
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}
