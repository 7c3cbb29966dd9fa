// Ablation benchmarks for the design choices DESIGN.md calls out: each
// switches off one Vista mechanism and reports the cost, quantifying how
// much every piece of the system contributes.
package repro

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/sim"
)

// BenchmarkAblationStagedVsLazy quantifies the computational-redundancy
// savings of the Staged plan (Section 4.2.1) on the simulator at paper
// scale.
func BenchmarkAblationStagedVsLazy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var mins [2]float64
		for j, kind := range []plan.Kind{plan.Staged, plan.Lazy} {
			w, err := sim.NewWorkload(sim.WorkloadSpec{
				ModelName: "resnet50", NumLayers: 5, Dataset: sim.FoodsSpec(),
				PlanKind: kind, Placement: plan.AfterJoin,
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg, err := sim.VistaConfig(w)
			if err != nil {
				b.Fatal(err)
			}
			r := sim.Run(w, cfg, sim.PaperCluster())
			if r.Crash != nil {
				b.Fatal(r.Crash)
			}
			mins[j] = r.TotalMin()
		}
		if i == 0 {
			b.ReportMetric(mins[1]/mins[0], "lazy-vs-staged")
		}
	}
}

// BenchmarkAblationAutoTuning quantifies the optimizer's value: the same
// Staged plan under Vista's decision vs. the naive SQL-era baseline config.
func BenchmarkAblationAutoTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorkload(sim.WorkloadSpec{
			ModelName: "resnet50", NumLayers: 5, Dataset: sim.AmazonSpec(),
			PlanKind: plan.Staged, Placement: plan.AfterJoin,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := sim.VistaConfig(w)
		if err != nil {
			b.Fatal(err)
		}
		tuned := sim.Run(w, cfg, sim.PaperCluster())
		naive := sim.Run(w, sim.BaselineSpark(5), sim.PaperCluster())
		if i == 0 {
			if tuned.Crash != nil {
				b.Fatal(tuned.Crash)
			}
			b.ReportMetric(tuned.TotalMin(), "tuned-min")
			if naive.Crash != nil {
				b.ReportMetric(1, "naive-crashed")
			} else {
				b.ReportMetric(naive.TotalMin(), "naive-min")
			}
		}
	}
}

// BenchmarkAblationSerializedFormat quantifies the serialized persistence
// format's spill reduction at 8X scale (Section 4.2.3).
func BenchmarkAblationSerializedFormat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorkload(sim.WorkloadSpec{
			ModelName: "resnet50", NumLayers: 5, Dataset: sim.FoodsSpec().Scale(8),
			PlanKind: plan.Staged, Placement: plan.AfterJoin,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := sim.VistaConfig(w)
		if err != nil {
			b.Fatal(err)
		}
		cfgD, cfgS := cfg, cfg
		cfgD.Pers = dataflow.Deserialized
		cfgS.Pers = dataflow.Serialized
		rd := sim.Run(w, cfgD, sim.PaperCluster())
		rs := sim.Run(w, cfgS, sim.PaperCluster())
		if i == 0 && rd.Crash == nil && rs.Crash == nil {
			b.ReportMetric(float64(rd.SpilledBytes)/(1<<30), "deser-spill-GB")
			b.ReportMetric(float64(rs.SpilledBytes)/(1<<30), "ser-spill-GB")
		}
	}
}

// stageSeconds sums the durations of res's top-level stage spans whose label
// has the given prefix (e.g. "infer:" for all live partial inference).
func stageSeconds(res *core.Result, prefix string) float64 {
	var total time.Duration
	for _, sp := range res.Trace.Children() {
		if strings.HasPrefix(sp.Name(), prefix) {
			total += sp.Duration()
		}
	}
	return total.Seconds()
}

// BenchmarkAblationFeatureStore measures — on the real engine, via the
// dataflow FLOP counters — what the materialized feature store saves: a cold
// run pays full partial-CNN inference, the warm repeat of the same workload
// attaches every stage from the store and executes zero CNN FLOPs.
func BenchmarkAblationFeatureStore(b *testing.B) {
	spec := data.Foods().WithRows(300)
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	run := func(store *featurestore.Store) *core.Result {
		res, err := core.Run(core.Spec{
			Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
			SystemKind: memory.SparkLike,
			ModelName:  "tiny-alexnet", NumLayers: 2,
			Downstream: core.DefaultDownstream(),
			StructRows: structRows, ImageRows: imageRows,
			Seed: 9, FeatureStore: store,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := featurestore.Open(b.TempDir(), memory.MB(256))
		if err != nil {
			b.Fatal(err)
		}
		cold := run(store)
		warm := run(store)
		if warm.Cache.StagesExecuted != 0 {
			b.Fatalf("warm run executed %d stages live", warm.Cache.StagesExecuted)
		}
		if i == 0 {
			b.ReportMetric(float64(cold.Counters.FLOPs)/1e9, "cold-GFLOPs")
			b.ReportMetric(float64(warm.Counters.FLOPs)/1e9, "warm-GFLOPs")
			b.ReportMetric(stageSeconds(cold, "infer:"), "cold-infer-sec")
			b.ReportMetric(stageSeconds(warm, "cache:"), "warm-attach-sec")
		}
		store.Close()
	}
}

// BenchmarkAblationJoinPlacement measures — on the real engine — how much
// data the BJ placement shuffles versus AJ (Section 4.2.1's join-reordering
// argument: feature layers outweigh raw images).
func BenchmarkAblationJoinPlacement(b *testing.B) {
	spec := data.Foods().WithRows(300)
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	run := func(placement plan.JoinPlacement) dataflow.Snapshot {
		res, err := core.Run(core.Spec{
			Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
			SystemKind: memory.SparkLike,
			ModelName:  "tiny-alexnet", NumLayers: 2,
			Downstream: core.DefaultDownstream(),
			StructRows: structRows, ImageRows: imageRows,
			Seed: 9, PlanKind: plan.Staged, Placement: placement,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Counters
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aj := run(plan.AfterJoin)
		bj := run(plan.BeforeJoin)
		if i == 0 {
			b.ReportMetric(float64(aj.BytesShuffled+aj.BytesBroadcast)/(1<<20), "aj-moved-MB")
			b.ReportMetric(float64(bj.BytesShuffled+bj.BytesBroadcast)/(1<<20), "bj-moved-MB")
		}
	}
}
