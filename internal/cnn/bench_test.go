package cnn

import (
	"testing"
)

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
}

func BenchmarkInferTinyAlexNet(b *testing.B)  { benchInference(b, "tiny-alexnet") }
func BenchmarkInferTinyVGG16(b *testing.B)    { benchInference(b, "tiny-vgg16") }
func BenchmarkInferTinyResNet50(b *testing.B) { benchInference(b, "tiny-resnet50") }

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
			if _, err := ComputeStats(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
