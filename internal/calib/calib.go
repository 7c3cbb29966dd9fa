// Package calib is the memory model's drift observatory. Algorithm 1 and
// admission price runs with the Section 4.1 memory model (sim.AdmissionCost
// gates real traffic on it), so calib measures exactly that model against
// reality: after every run, sim.CompareStorage pairs the model's predicted
// peak storage and spill bytes with the engine's exact counters, which the
// run's root span carries, and the two
// pairs (storage:peak, storage:spill) are folded into an append-only,
// crash-safe on-disk log (one compact record per run) and into rolling
// aggregates: a time-decayed EWMA of ln(measured/estimated), a
// relative-error histogram, sample counts, and a least-squares scale. Nothing
// feeds back into pricing: a drift outside the band the -max-drift SLO sets
// is a defect in the engine or the model, to be fixed there.
//
// Bytes are directly comparable: the model predicts from the measured
// workload's own row counts and image bytes. Stage times are not: the
// simulator prices the paper's cluster while the engine runs a scaled-down
// in-process replica, and no price reads a stage time, so calib neither
// records nor reports them (vista -trace prints the per-stage time table).
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
	"repro/internal/plan"
	"repro/internal/sim"
)

// Sample is one (estimated, measured) storage pair in bytes. A sample with
// Cached or Shared set — or a non-positive side — is logged for the record
// but excluded from the aggregates: the memory model prices a cold run, and
// a run that attached any feature table held less.
type Sample struct {
	// Stage labels the pair: "storage:peak" or "storage:spill".
	Stage string
	// Est and Meas are the predicted and measured bytes.
	Est, Meas float64
	// Cached and Shared mark a run that attached some stage from the
	// feature store or a share group's handoff.
	Cached, Shared bool
}

// counts reports whether the sample enters the rolling aggregates.
func (s Sample) counts() bool {
	return !s.Cached && !s.Shared && s.Est > 0 && s.Meas > 0
}

// samplesFromRun turns one run's storage report into its storage samples,
// omitting a pair with neither an estimate nor a measurement. trace flags
// them: a run with any cache: or shared: stage attached tables the model
// prices as computed.
func samplesFromRun(trace *obs.Span, rep sim.StorageReport) []Sample {
	var cached, shared bool
	for _, sp := range trace.Children() {
		cached = cached || strings.HasPrefix(sp.Name(), "cache:")
		shared = shared || strings.HasPrefix(sp.Name(), "shared:")
	}
	var out []Sample
	add := func(stage string, est, meas int64) {
		if est > 0 || meas > 0 {
			out = append(out, Sample{Stage: stage, Est: float64(est), Meas: float64(meas), Cached: cached, Shared: shared})
		}
	}
	add("storage:peak", rep.PredPeakStorageBytes, rep.MeasPeakStorageBytes)
	add("storage:spill", rep.PredSpillBytes, rep.MeasSpillBytes)
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
	// Downstream is the downstream model the run trained (the zero value is
	// logistic regression).
	Downstream sim.Downstream
}

// EnvFromSpec derives the RunEnv of a run executed from spec over the named
// dataset preset: the workload shape is read off the rows that actually ran
// (row count, structured width, sampled image-row bytes), so the memory
// model's byte predictions line up with the measurement.
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
		Downstream:    spec.Downstream.Footprint(),
	}
	if len(spec.StructRows) > 0 {
		env.StructDim = len(spec.StructRows[0].Structured)
	}
	return env
}

// Simulate prices env's workload, exploring numLayers feature layers, on the
// paper cluster profile under the configuration Vista's optimizer picks —
// the decision core.Run executed. It fails when the optimizer finds the simulated workload
// infeasible or the simulated run crashes — there is no estimate to compare
// against (tiny in-process runs can describe workloads the paper cluster
// model rejects).
func Simulate(env RunEnv, numLayers int) (sim.Result, error) {
	wi, err := sim.Vista(sim.WorkloadSpec{
		ModelName: env.ModelName,
		NumLayers: numLayers,
		Dataset: sim.DatasetSpec{
			Name:          env.Dataset,
			Rows:          env.Rows,
			StructDim:     env.StructDim,
			ImageRowBytes: env.ImageRowBytes,
		},
		PlanKind:   env.PlanKind,
		Placement:  env.Placement,
		Nodes:      env.Nodes,
		CPUSys:     env.Cores,
		MemSys:     env.MemBytes,
		Downstream: env.Downstream,
	})
	if err != nil {
		return sim.Result{}, fmt.Errorf("calib: simulate: %w", err)
	}
	if wi.Result.Crash != nil {
		return sim.Result{}, fmt.Errorf("calib: simulated run crashes: %w", wi.Result.Crash)
	}
	return wi.Result, nil
}

// CompareRun simulates env's workload (Simulate, over the layers the trace
// shows were explored), compares its memory model with the engine's peak
// storage and spill on the trace's root span, and returns the run's storage
// samples. A run without a trace, or whose root carries no storage
// measurement, has nothing to compare.
//
// The third parameter is ignored: bench's traced run still passes the run's
// sampled recording, and ROADMAP direction 1(d), which rewrites that run,
// deletes the parameter.
func CompareRun(env RunEnv, trace *obs.Span, _ *sampler.Recording) ([]Sample, error) {
	if trace == nil {
		return nil, fmt.Errorf("calib: a run needs a trace to compare")
	}
	if _, ok := trace.Attr(sim.AttrPeakStorageBytes); !ok {
		return nil, fmt.Errorf("calib: the trace's root carries no storage measurement")
	}
	simRes, err := Simulate(env, exploredLayers(trace))
	if err != nil {
		return nil, err
	}
	return samplesFromRun(trace, sim.CompareStorage(simRes, trace)), nil
}

// exploredLayers counts the feature layers the measured run explored, so
// the simulated workload prices the same layers: every plan trains once per
// explored layer, whether the layer's features came from an infer:, cache:
// or shared: stage or from an Eager pass that emitted several.
func exploredLayers(trace *obs.Span) int {
	n := 0
	for _, sp := range trace.Children() {
		if strings.HasPrefix(sp.Name(), "train:") {
			n++
		}
	}
	return max(n, 1)
}
