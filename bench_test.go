// Package repro's root-level benchmarks time the real engine in process: one
// fully-warm and one fully-cold served request (BenchmarkWarmRun,
// BenchmarkColdRun), and the feature-store and join-placement ablations.
// Run them all with:
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's figures and tables are not benchmarks: cmd/vista-bench renders
// them, and its tests lock the deterministic ones against results.txt.
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/featurestore"
	"repro/internal/lifecycle"
	"repro/internal/memory"
)

// BenchmarkWarmRun is the in-process cost of serving one fully-warm request
// the way vista-server's handleRun does — tables from the dataset catalog,
// one run lifecycle over a real on-disk feature store — on the bench
// workload warm-repeat's shape (tiny-resnet50, 100 foods rows, 5 layers,
// every stage attached from the store). store-read-B/op is the serialized
// size of the store entries one such run reads: the feature entries only.
func BenchmarkWarmRun(b *testing.B) {
	store, err := featurestore.Open(b.TempDir(), memory.MB(256))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	catalog := data.NewCatalog()
	runner := &lifecycle.Runner{}
	serve := func() *core.Result {
		tables, err := catalog.Get(data.Foods().WithRows(100))
		if err != nil {
			b.Fatal(err)
		}
		out := runner.Do(context.Background(), core.Spec{
			Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
			SystemKind: memory.SparkLike,
			ModelName:  "tiny-resnet50", NumLayers: 5,
			Downstream: core.DefaultDownstream(),
			Seed:       7, FeatureStore: store,
		}.WithTables(tables), "foods")
		if out.Kind != lifecycle.Completed {
			b.Fatalf("run did not complete: %+v", out)
		}
		return out.Result
	}
	serve() // cold: materializes every stage
	before := store.Snapshot().ReadBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := serve(); res.Cache.StagesExecuted != 0 || res.Cache.StagesFromCache != 5 {
			b.Fatalf("run was not fully warm: %+v", res.Cache)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(store.Snapshot().ReadBytes-before)/float64(b.N), "store-read-B/op")
}

// BenchmarkColdRun is the in-process cost of serving one fully-cold request
// on the bench workload cold-distinct's shape (tiny-vgg16, 32 foods rows, 3
// layers): every iteration is a seed the store has never seen, so every stage
// executes — image decode, partial inference, feature puts, training — and
// nothing is attached.
func BenchmarkColdRun(b *testing.B) {
	store, err := featurestore.Open(b.TempDir(), memory.MB(256))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	catalog := data.NewCatalog()
	runner := &lifecycle.Runner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := catalog.Get(data.Foods().WithRows(32))
		if err != nil {
			b.Fatal(err)
		}
		out := runner.Do(context.Background(), core.Spec{
			Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
			SystemKind: memory.SparkLike,
			ModelName:  "tiny-vgg16", NumLayers: 3,
			Downstream: core.DefaultDownstream(),
			Seed:       int64(1000 + i), FeatureStore: store,
		}.WithTables(tables), "foods")
		if out.Kind != lifecycle.Completed {
			b.Fatalf("run did not complete: %+v", out)
		}
		if out.Result.Cache.StagesFromCache != 0 {
			b.Fatalf("run was not fully cold: %+v", out.Result.Cache)
		}
	}
}
