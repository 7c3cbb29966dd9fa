package calib

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

// byStage indexes a run's samples by stage.
func byStage(samples []Sample) map[string]Sample {
	out := make(map[string]Sample)
	for _, s := range samples {
		out[s.Stage] = s
	}
	return out
}

// A cold run's storage samples measure exactly what its engine counted: the
// high-water mark of the storage pools and the bytes it spilled, not the
// largest value some sample period happened to catch.
func TestCompareRunStorageIsEngineExact(t *testing.T) {
	structRows, imageRows, err := data.Generate(data.Foods().WithRows(100))
	if err != nil {
		t.Fatal(err)
	}
	spilling := &optimizer.Decision{
		CPU: 2, NP: 16,
		MemDL:      memory.MB(64),
		MemUser:    memory.MB(64),
		MemStorage: memory.MB(2), // cannot hold the tables: the run spills
		Join:       dataflow.ShuffleJoin,
		Pers:       dataflow.Deserialized,
	}
	for _, tc := range []struct {
		name     string
		decision *optimizer.Decision
	}{{"optimized", nil}, {"spilling", spilling}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := core.Spec{
				Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
				SystemKind: memory.SparkLike,
				ModelName:  "tiny-alexnet", NumLayers: 2,
				Downstream: core.DefaultDownstream(),
				StructRows: structRows, ImageRows: imageRows, Seed: 1,
				PlanKind: plan.Staged, Placement: plan.AfterJoin,
				Decision: tc.decision,
				SpillDir: t.TempDir(),
			}
			res, err := core.Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			samples, err := CompareRun(EnvFromSpec(spec, "foods"), res.Trace, nil)
			if err != nil {
				t.Fatalf("CompareRun: %v", err)
			}
			got := byStage(samples)
			if len(got) != len(samples) {
				t.Fatalf("samples repeat a stage: %+v", samples)
			}
			for stage := range got {
				if stage != "storage:peak" && stage != "storage:spill" {
					t.Errorf("sample %q: a run's samples are its storage pairs only", stage)
				}
			}
			peak, ok := got["storage:peak"]
			if !ok || peak.Meas <= 0 || peak.Meas != float64(res.Counters.PeakStorageBytes) {
				t.Errorf("storage:peak Meas = %v (present %v), want the engine's %d",
					peak.Meas, ok, res.Counters.PeakStorageBytes)
			}
			if !peak.counts() {
				t.Errorf("a cold run's storage:peak must feed the fit: %+v", peak)
			}
			spill, ok := got["storage:spill"]
			if tc.decision != nil && res.Counters.BytesSpilled <= 0 {
				t.Fatal("the spilling decision spilled nothing")
			}
			if res.Counters.BytesSpilled > 0 && (!ok || spill.Meas != float64(res.Counters.BytesSpilled)) {
				t.Errorf("storage:spill Meas = %v (present %v), want the engine's %d",
					spill.Meas, ok, res.Counters.BytesSpilled)
			}
		})
	}
}

// An Eager run infers every layer in one infer: stage and then trains each
// layer: its storage estimate must price all the layers it explored, not
// one per inference stage.
func TestCompareRunPricesEveryExploredLayer(t *testing.T) {
	structRows, imageRows, err := data.Generate(data.Foods().WithRows(40))
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{
		Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 3,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows, Seed: 1,
		PlanKind: plan.Eager, Placement: plan.AfterJoin,
		SpillDir: t.TempDir(),
	}
	res, err := core.Run(spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	env := EnvFromSpec(spec, "foods")
	samples, err := CompareRun(env, res.Trace, nil)
	if err != nil {
		t.Fatalf("CompareRun: %v", err)
	}
	predictedPeak := func(layers int) float64 {
		r, err := Simulate(env, layers)
		if err != nil {
			t.Fatalf("Simulate(%d): %v", layers, err)
		}
		peak := r.BaseStorageBytes
		for _, lc := range r.Layers {
			peak = max(peak, lc.LiveStorageBytes)
		}
		return float64(peak)
	}
	if predictedPeak(1) == predictedPeak(3) {
		t.Fatal("one and three simulated layers predict the same peak: the check below is vacuous")
	}
	if got, want := byStage(samples)["storage:peak"].Est, predictedPeak(3); got != want {
		t.Errorf("storage:peak Est = %v, want %v, the 3-layer simulation's", got, want)
	}
}

// A run that attached any feature table — from the store or a share group —
// held less storage than the cold run the memory model prices: its storage
// samples are logged but never reach the aggregates the fit reads.
func TestSamplesFromRunExcludesAttachedStorage(t *testing.T) {
	rep := sim.StorageReport{
		PredPeakStorageBytes: 6 << 20, MeasPeakStorageBytes: 1 << 20,
		PredSpillBytes: 2 << 20, MeasSpillBytes: 1 << 20,
	}
	for _, tc := range []struct {
		name          string
		trace         *obs.Span
		wantCounts    bool
		cache, shared bool
	}{
		{"cold", stageTrace("ingest", "infer:fc6", "infer:fc7"), true, false, false},
		{"cache", stageTrace("ingest", "infer:fc6", "cache:fc7"), false, true, false},
		{"shared", stageTrace("ingest", "infer:fc6", "shared:fc7"), false, false, true},
	} {
		samples := samplesFromRun(tc.trace, rep)
		got := byStage(samples)
		if len(got) != 2 {
			t.Fatalf("%s: storage samples = %v, want peak and spill", tc.name, got)
		}
		for stage, s := range got {
			if s.counts() != tc.wantCounts || s.Cached != tc.cache || s.Shared != tc.shared {
				t.Errorf("%s: %s = %+v, want counts=%v cached=%v shared=%v",
					tc.name, stage, s, tc.wantCounts, tc.cache, tc.shared)
			}
		}
		a := NewAggregator()
		a.Add(Record{At: time.Unix(1000, 0), Samples: samples})
		if n := a.Report().Samples; (n > 0) != tc.wantCounts {
			t.Errorf("%s: aggregated storage samples = %d, want some=%v", tc.name, n, tc.wantCounts)
		}
	}
}

// Storage evidence is the storage measurement on the trace's root span: a
// run whose root carries none, or that has no trace, is not compared (and
// so never logged as an empty record).
func TestCompareRunNeedsMeasurement(t *testing.T) {
	env := RunEnv{
		ModelName: "tiny-alexnet", Dataset: "foods", Rows: 100, StructDim: 130, ImageRowBytes: 14 << 10,
		PlanKind: plan.Staged, Placement: plan.AfterJoin, Nodes: 2, Cores: 2, MemBytes: memory.GB(32),
	}
	for _, trace := range []*obs.Span{stageTrace("ingest", "infer:fc6", "train:fc6"), nil} {
		if samples, err := CompareRun(env, trace, nil); err == nil {
			t.Fatalf("CompareRun without a storage measurement = %+v, want an error", samples)
		}
	}
}

// Sampling is for the exporters only: the same cold run yields the same
// calibration samples with and without a sampler, and they are the engine's
// final counters.
func TestCompareRunSameSampledOrNot(t *testing.T) {
	tables, err := data.NewCatalog().Get(data.Foods().WithRows(100))
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]Sample
	for i, every := range []time.Duration{0, time.Millisecond} {
		spec := core.Spec{
			Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
			SystemKind: memory.SparkLike,
			ModelName:  "tiny-alexnet", NumLayers: 2,
			Downstream: core.DefaultDownstream(),
			Seed:       1,
			PlanKind:   plan.Staged, Placement: plan.AfterJoin,
			SampleEvery: every,
			SpillDir:    t.TempDir(),
		}.WithTables(tables)
		res, err := core.Run(spec)
		if err != nil {
			t.Fatalf("run (SampleEvery %v): %v", every, err)
		}
		if (res.Series != nil) != (every > 0) {
			t.Fatalf("SampleEvery %v recorded a series: %v", every, res.Series != nil)
		}
		samples, err := CompareRun(EnvFromSpec(spec, "foods"), res.Trace, res.Series)
		if err != nil {
			t.Fatalf("CompareRun (SampleEvery %v): %v", every, err)
		}
		peak := byStage(samples)["storage:peak"]
		if peak.Meas <= 0 || peak.Meas != float64(res.Counters.PeakStorageBytes) {
			t.Errorf("SampleEvery %v: storage:peak Meas = %v, want the engine's %d",
				every, peak.Meas, res.Counters.PeakStorageBytes)
		}
		if spill, ok := byStage(samples)["storage:spill"]; ok && spill.Meas != float64(res.Counters.BytesSpilled) {
			t.Errorf("SampleEvery %v: storage:spill Meas = %v, want the engine's %d",
				every, spill.Meas, res.Counters.BytesSpilled)
		}
		runs[i] = samples
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("samples differ: unsampled %+v, sampled %+v", runs[0], runs[1])
	}
}

// Simulate prices the decision the run executed: Algorithm 1's choice for
// the run's workload under the paper constants.
func TestSimulatePricesVistaDecision(t *testing.T) {
	env := RunEnv{
		ModelName: "alexnet", Dataset: "foods",
		Rows: 20000, StructDim: 130, ImageRowBytes: 14 << 10,
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 8, Cores: 8, MemBytes: memory.GB(32),
	}
	const layers = 4
	wl, err := sim.NewWorkload(sim.WorkloadSpec{
		ModelName: env.ModelName, NumLayers: layers,
		Dataset: sim.DatasetSpec{
			Name: env.Dataset, Rows: env.Rows, StructDim: env.StructDim, ImageRowBytes: env.ImageRowBytes,
		},
		PlanKind: env.PlanKind, Placement: env.Placement,
		Nodes: env.Nodes, CPUSys: env.Cores, MemSys: env.MemBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := optimizer.DefaultParams()
	d, err := optimizer.Optimize(wl.Inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	prof := sim.PaperCluster()
	prof.Nodes, prof.MemPerNode = env.Nodes, env.MemBytes
	got, err := Simulate(env, layers)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Run(wl, sim.FromDecision(d, params), prof); !reflect.DeepEqual(got, want) {
		t.Errorf("Simulate = %+v, want the optimizer decision's %+v", got, want)
	}
}

// Simulate prices the downstream model the run trained: an MLP run's memory
// model is the decision core made for it, with the MLP in DL Execution
// Memory, not a logistic regression's.
func TestSimulatePricesRunDownstream(t *testing.T) {
	structRows, imageRows, err := data.Generate(data.Foods().WithRows(100))
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{
		Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 2,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows, Seed: 1,
	}
	spec.Downstream.Kind = core.MLP
	ex, err := core.Explain(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(EnvFromSpec(spec, "foods"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(spec.Nodes) * ex.Decision.MemStorage; got.StorageCapBytes != want {
		t.Errorf("simulated storage cap = %d, want the MLP decision's %d", got.StorageCapBytes, want)
	}
}
