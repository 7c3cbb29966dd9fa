package ml

import (
	"context"
	"testing"

	"repro/internal/memory"
)

func BenchmarkTrainLogReg(b *testing.B) {
	rows := linearlySeparableRows(1000, 64, 1)
	cfg := DefaultLogRegConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainLogRegRows(rows, StructuredOnly(), 64, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainLogRegServed times the fit a warm-repeat request runs: 80
// training rows of 8 structured dims plus a 512-wide post-ReLU feature
// through StructuredPlusFeature(0), in 6 partitions on an engine, at the
// paper's settings. The engine carries a cancellable run context, as a
// served run's does (core.RunContext), so every pass pays runTasks'
// cancellation registration.
func BenchmarkTrainLogRegServed(b *testing.B) {
	const structDim, featDim = 8, 512
	e := testEngine(b, 2, memory.MB(64))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetContext(ctx)
	tb, err := e.CreateTable("train", featureRows(80, structDim, featDim, 1), 6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultLogRegConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainLogReg(e, tb, nil, StructuredPlusFeature(0), structDim+featDim, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainTree(b *testing.B) {
	rows := linearlySeparableRows(1000, 32, 2)
	cfg := DefaultTreeConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainTree(rows, StructuredOnly(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainMLP(b *testing.B) {
	rows := linearlySeparableRows(500, 32, 3)
	cfg := MLPConfig{Hidden: []int{16}, Iterations: 5, BatchSize: 32, LearningRate: 0.1, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainMLP(rows, StructuredOnly(), 32, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	rows := linearlySeparableRows(100, 256, 4)
	m, err := TrainLogRegRows(rows, StructuredOnly(), 256, DefaultLogRegConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := rows[0].Structured
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}
