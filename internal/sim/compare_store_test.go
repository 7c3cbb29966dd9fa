package sim_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/sim"
)

// simulateLike builds and runs the simulator on a workload mirroring the real
// run's shape (rows, feature dims, image bytes), the same construction
// cmd/vista's -trace report uses.
func simulateLike(t *testing.T, structRows, imageRows []dataflow.Row, layers, nodes, cores int, memGB float64) sim.Result {
	t.Helper()
	var imgBytes int64
	for i := range imageRows {
		imgBytes += imageRows[i].MemBytes()
	}
	imgBytes /= int64(len(imageRows))
	wi, err := sim.Vista(sim.WorkloadSpec{
		ModelName: "tiny-alexnet", NumLayers: layers,
		Dataset: sim.DatasetSpec{
			Name: "foods", Rows: len(structRows),
			StructDim:     len(structRows[0].Structured),
			ImageRowBytes: imgBytes,
		},
		PlanKind: 0, Placement: 0, // Staged/AJ defaults
		Nodes: nodes, CPUSys: cores, MemSys: memory.GB(memGB),
	})
	if err != nil {
		t.Fatalf("Vista: %v", err)
	}
	return wi.Result
}

// TestCompareAgainstFeatureStoreRun validates both comparisons against real
// executions: a cold staged run (every stage live)
// and a warm rerun whose inference stages attach from the feature store —
// those must surface as labeled Cached rows, not as huge relative errors.
func TestCompareAgainstFeatureStoreRun(t *testing.T) {
	structRows, imageRows, err := data.Generate(data.Foods().WithRows(100))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	store, err := featurestore.Open(t.TempDir(), memory.MB(64))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer store.Close()
	spec := core.Spec{
		Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 2,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows, Seed: 1,
		FeatureStore: store,
	}
	cold, err := core.Run(spec)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	warm, err := core.Run(spec)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.Cache.StagesFromCache == 0 {
		t.Fatalf("warm run hit no cache: %+v", warm.Cache)
	}
	simRes := simulateLike(t, structRows, imageRows, 2, 2, 2, 32)
	if simRes.Crash != nil {
		t.Fatalf("simulated run crashed: %v", simRes.Crash)
	}

	// CompareTrace on the warm run: every feature-store attach is flagged
	// Cached with a zero estimate, and the render labels it.
	comps := sim.CompareTrace(simRes, warm.Trace)
	var cachedRows int
	for _, c := range comps {
		if strings.HasPrefix(c.Stage, "cache:") {
			cachedRows++
			if !c.Cached {
				t.Errorf("%s not flagged Cached", c.Stage)
			}
			if c.Estimated != 0 {
				t.Errorf("%s estimated %v, want 0 (simulator runs cold)", c.Stage, c.Estimated)
			}
			if c.Measured <= 0 {
				t.Errorf("%s lost its measurement", c.Stage)
			}
		} else if c.Cached {
			t.Errorf("%s flagged Cached without a cache: label", c.Stage)
		}
	}
	if cachedRows != warm.Cache.StagesFromCache {
		t.Errorf("cached rows = %d, want %d", cachedRows, warm.Cache.StagesFromCache)
	}
	var b strings.Builder
	sim.RenderComparison(&b, comps)
	if !strings.Contains(b.String(), "(cached: feature-store attach, not modeled)") {
		t.Errorf("render missing the cached label:\n%s", b.String())
	}

	// CompareStorage on the cold staged run: the run-level prediction against
	// the engine's own high-water mark and spill volume, read exactly from the
	// root span.
	rep := sim.CompareStorage(simRes, cold.Trace)
	if rep.MeasPeakStorageBytes <= 0 || rep.MeasPeakStorageBytes != cold.Counters.PeakStorageBytes {
		t.Errorf("measured peak storage = %d, want the engine's %d",
			rep.MeasPeakStorageBytes, cold.Counters.PeakStorageBytes)
	}
	if rep.MeasSpillBytes != cold.Counters.BytesSpilled {
		t.Errorf("measured spill = %d, want the engine's %d", rep.MeasSpillBytes, cold.Counters.BytesSpilled)
	}
	if rep.PredPeakStorageBytes <= 0 {
		t.Errorf("predicted peak storage = %d, want > 0", rep.PredPeakStorageBytes)
	}
	// The warm run attaches its feature tables from the store: it measures
	// its own, smaller engine, while the prediction still prices each
	// layer's table (an attach loads the same table).
	warmRep := sim.CompareStorage(simRes, warm.Trace)
	if warmRep.MeasPeakStorageBytes != warm.Counters.PeakStorageBytes {
		t.Errorf("warm measured peak = %d, want the engine's %d",
			warmRep.MeasPeakStorageBytes, warm.Counters.PeakStorageBytes)
	}
	if warmRep.MeasPeakStorageBytes >= rep.MeasPeakStorageBytes {
		t.Errorf("warm run held %d storage bytes, cold %d: attaching should hold less",
			warmRep.MeasPeakStorageBytes, rep.MeasPeakStorageBytes)
	}
	if warmRep.PredPeakStorageBytes <= 0 {
		t.Errorf("warm predicted peak storage = %d, want > 0", warmRep.PredPeakStorageBytes)
	}
}
