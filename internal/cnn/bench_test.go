package cnn

import (
	"testing"

	"repro/internal/tensor"
)

// benchInference infers one image per op.
func benchInference(b *testing.B, name string) {
	b.Helper()
	m, err := ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := m.RealizeWeights(1)
	if err != nil {
		b.Fatal(err)
	}
	img := randImage(m, 1)
	flops, err := m.TotalFLOPs()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fullInfer(m, w, img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(flops)/1e6, "MFLOPs/inference")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/row")
}

func BenchmarkInferTinyAlexNet(b *testing.B)  { benchInference(b, "tiny-alexnet") }
func BenchmarkInferTinyVGG16(b *testing.B)    { benchInference(b, "tiny-vgg16") }
func BenchmarkInferTinyResNet50(b *testing.B) { benchInference(b, "tiny-resnet50") }

// BenchmarkInferTinyResNet50Batch infers InferenceBatch images per op as one
// batch, the way dl.PartitionFunc runs a partition; its µs/row sits beside
// BenchmarkInferTinyResNet50's.
func BenchmarkInferTinyResNet50Batch(b *testing.B) {
	m := TinyResNet50()
	w, err := m.RealizeWeights(1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewBatch(m.InputShape, InferenceBatch)
	for i := 0; i < InferenceBatch; i++ {
		if err := tensor.SetItem(x, i, randImage(m, int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fullInfer(m, w, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*InferenceBatch), "µs/row")
}

func BenchmarkPartialInferenceFCOnly(b *testing.B) {
	// The Staged plan's incremental stages: fc6 → fc8 of tiny-alexnet.
	m := TinyAlexNet()
	w, err := m.RealizeWeights(1)
	if err != nil {
		b.Fatal(err)
	}
	img := randImage(m, 2)
	conv5 := m.FeatureLayers[0]
	mid, err := m.PartialInfer(w, img, 0, conv5.LayerIndex)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PartialInfer(w, mid, conv5.LayerIndex+1, m.NumLayers()-1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeStatsFullRoster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"alexnet", "vgg16", "resnet50"} {
			m, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := walkStats(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
