// Package repro's root-level benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per exhibit) and report the headline
// quantities as custom metrics. Run them all with:
//
//	go test -bench=. -benchmem
//
// The cluster-scale figures run on the calibrated analytical simulator
// (fast); Figure 8 and Figure 15 execute for real on the dataflow engine
// with the Tiny CNNs, so their benchmarks use reduced row counts.
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/featurestore"
	"repro/internal/lifecycle"
	"repro/internal/memory"
)

func BenchmarkFigure6EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			vista := res.Find("spark", "foods", "resnet50", "Vista")
			lazy1 := res.Find("spark", "foods", "resnet50", "Lazy-1")
			b.ReportMetric(vista.TotalMin(), "vista-min")
			b.ReportMetric(100*(1-vista.TotalMin()/lazy1.TotalMin()), "gain-vs-lazy1-%")
			crashes := 0
			for _, c := range res.Cells {
				if c.Crashed() {
					crashes++
				}
			}
			b.ReportMetric(float64(crashes), "baseline-crashes")
		}
	}
}

func BenchmarkFigure7AGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7A()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if c := res.Find("resnet50", "Vista"); c != nil {
				b.ReportMetric(c.TotalMin(), "vista-resnet-min")
			}
		}
	}
}

func BenchmarkFigure7BTFTBeam(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7B()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Points[len(res.Points)-1]
			b.ReportMetric(last.TFTBeamMin/last.VistaMin, "tft-vs-vista-at-5L")
		}
	}
}

func BenchmarkFigure8Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(experiments.Figure8Options{Rows: 400})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p := res.Panels[0]
			b.ReportMetric(p.Entry("struct").F1*100, "struct-f1-%")
			b.ReportMetric(p.Best().F1*100, "best-cnn-f1-%")
		}
	}
}

func BenchmarkFigure9LogicalPlans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			eager := sweeps[3].Get("8X", "Eager/AJ")
			staged := sweeps[3].Get("8X", "Staged/AJ")
			if eager.Crash == nil && staged.Crash == nil {
				b.ReportMetric(eager.TotalMin()/staged.TotalMin(), "eager-vs-staged-8X")
			}
		}
	}
}

func BenchmarkFigure10PhysicalPlans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Configuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Picked["resnet50"].CPU), "picked-cpu-resnet50")
			b.ReportMetric(float64(res.Picked["resnet50"].NP), "picked-np-resnet50")
		}
	}
}

func BenchmarkFigure12Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Speedup["vgg16"][3], "vgg16-8node-speedup")
			b.ReportMetric(res.Speedup["alexnet"][3], "alexnet-8node-speedup")
		}
	}
}

func BenchmarkFigure15SizeEstimates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure15(150)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			row := res.Rows[0]
			b.ReportMetric(float64(row.EstimateBytes)/float64(row.ActualDeserBytes), "estimate-margin")
		}
	}
}

func BenchmarkFigure16PreMaterialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p := res.Series[0].Points[0]
			b.ReportMetric(p.WithPreMatMin/p.WithoutPreMatMin, "premat-ratio")
		}
	}
}

func BenchmarkTable2LayerSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Model == "resnet50" {
					b.ReportMetric(row.SizesGB["5th"], "resnet50-5th-GB")
				}
			}
		}
	}
}

func BenchmarkTable3Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Breakdown["resnet50"][8].TotalMin, "resnet50-8node-min")
			b.ReportMetric(res.Breakdown["resnet50"][1].TotalMin, "resnet50-1node-min")
		}
	}
}

func BenchmarkFigure17SpeedupDrilldown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure17()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ReadSpeedup["alexnet"][3], "read-8node-speedup")
		}
	}
}

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
