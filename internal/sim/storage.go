package sim

import (
	"fmt"
	"io"

	"repro/internal/memory"
	"repro/internal/obs"
)

// This file validates the simulator's memory-model predictions against what a
// real run's storage held: CompareStorage lines the abstract memory model's
// run-level predictions — peak storage-pool occupancy (Section 4.1,
// Eqs. 9–15, via the intermediate-size estimates of Eq. 16) and spill volume —
// up against the engine's exact counters. Like CompareTrace, absolute scales
// only match when the simulated workload mirrors the measured one (same rows
// and image bytes).

// Root-span attribute keys under which core.RunContext records the engine's
// final storage counters, read once after the last stage: the high-water
// mark of storage-pool bytes across nodes, and the cumulative spill volume.
const (
	AttrPeakStorageBytes = "peak_storage_bytes"
	AttrSpilledBytes     = "spilled_bytes"
)

// StorageReport is one run's predicted-vs-measured memory behaviour.
type StorageReport struct {
	// PredPeakStorageBytes is the model's largest cluster-wide storage-pool
	// occupancy over the run's stages; MeasPeakStorageBytes is the engine's
	// high-water mark of the same pools.
	PredPeakStorageBytes int64
	MeasPeakStorageBytes int64
	// PredSpillBytes / MeasSpillBytes are the run-wide spill volumes.
	PredSpillBytes int64
	MeasSpillBytes int64
}

// CompareStorage pairs the run's measured peak storage and spill volume with
// the simulator's prediction for it, r: the predicted peak is the largest of
// the base tables' occupancy (BaseStorageBytes) and every layer's
// LiveStorageBytes, and the predicted spill is the layers' SpilledBytes
// summed. r must price the layers the run explored, as calib.Simulate does.
// The measurement is the two storage attributes on trace's root span; a root
// without them measures zero. A crashed simulation yields zero predictions;
// the measurements remain.
func CompareStorage(r Result, trace *obs.Span) StorageReport {
	var rep StorageReport
	rep.MeasPeakStorageBytes, _ = trace.Attr(AttrPeakStorageBytes)
	rep.MeasSpillBytes, _ = trace.Attr(AttrSpilledBytes)
	if r.Crash != nil {
		return rep
	}
	rep.PredPeakStorageBytes = r.BaseStorageBytes
	for _, lc := range r.Layers {
		rep.PredPeakStorageBytes = max(rep.PredPeakStorageBytes, lc.LiveStorageBytes)
		rep.PredSpillBytes += lc.SpilledBytes
	}
	return rep
}

// RenderStorageReport writes the validation as a two-row table: estimated vs
// measured peak storage, and estimated vs measured spill, each with its
// drift ratio where both sides are non-zero.
func RenderStorageReport(w io.Writer, rep StorageReport) {
	fmt.Fprintf(w, "%-13s  %12s %12s\n", "", "estimated", "measured")
	row := func(label string, est, meas int64) {
		note := ""
		if est > 0 && meas > 0 {
			note = fmt.Sprintf("  (drift %.2fx)", float64(meas)/float64(est))
		}
		fmt.Fprintf(w, "%-13s  %12s %12s%s\n", label,
			memory.FormatBytes(est), memory.FormatBytes(meas), note)
	}
	row("peak storage", rep.PredPeakStorageBytes, rep.MeasPeakStorageBytes)
	row("spill", rep.PredSpillBytes, rep.MeasSpillBytes)
}
