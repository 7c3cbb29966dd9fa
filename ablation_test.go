// Ablation benchmarks for design choices DESIGN.md calls out, measured on the
// real engine: each switches off one Vista mechanism and reports the cost.
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
)

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
