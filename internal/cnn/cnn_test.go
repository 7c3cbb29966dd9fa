package cnn

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// fullInfer is full CNN inference f(t) (Definition 3.6): partial inference
// over every layer.
func fullInfer(m *Model, w *Weights, in *tensor.Tensor) (*tensor.Tensor, error) {
	return m.PartialInfer(w, in, 0, len(m.Layers)-1)
}

func TestAlexNetShapes(t *testing.T) {
	m := AlexNet()
	tests := []struct {
		idx  int
		want tensor.Shape
	}{
		{0, tensor.Shape{96, 55, 55}},  // conv1
		{1, tensor.Shape{96, 27, 27}},  // pool1
		{3, tensor.Shape{256, 13, 13}}, // pool2
		{6, tensor.Shape{256, 13, 13}}, // conv5
		{7, tensor.Shape{256, 6, 6}},   // pool5
		{8, tensor.Shape{4096}},        // fc6
		{10, tensor.Shape{1000}},       // fc8
	}
	for _, tc := range tests {
		got, err := m.ShapeAt(tc.idx)
		if err != nil {
			t.Fatalf("ShapeAt(%d): %v", tc.idx, err)
		}
		if !got.Equal(tc.want) {
			t.Errorf("ShapeAt(%d) = %v, want %v", tc.idx, got, tc.want)
		}
	}
}

func TestVGG16Shapes(t *testing.T) {
	m := VGG16()
	// After 5 blocks of 2x downsampling: 224 -> 7, channels 512.
	s, err := m.ShapeAt(len(m.Layers) - 4) // pool5
	if err != nil {
		t.Fatalf("ShapeAt: %v", err)
	}
	if !s.Equal(tensor.Shape{512, 7, 7}) {
		t.Errorf("VGG16 pool5 shape = %v, want (512,7,7)", s)
	}
	fc6, err := m.ShapeAt(len(m.Layers) - 3)
	if err != nil {
		t.Fatalf("ShapeAt fc6: %v", err)
	}
	if !fc6.Equal(tensor.Shape{4096}) {
		t.Errorf("VGG16 fc6 shape = %v, want (4096)", fc6)
	}
}

func TestResNet50Shapes(t *testing.T) {
	m := ResNet50()
	fl := m.FeatureLayers
	if len(fl) != 5 {
		t.Fatalf("ResNet50 has %d feature layers, want 5", len(fl))
	}
	conv46, err := m.ShapeAt(fl[0].LayerIndex)
	if err != nil {
		t.Fatalf("conv4_6 shape: %v", err)
	}
	if !conv46.Equal(tensor.Shape{1024, 14, 14}) {
		t.Errorf("conv4_6 shape = %v, want (1024,14,14)", conv46)
	}
	conv53, err := m.ShapeAt(fl[3].LayerIndex)
	if err != nil {
		t.Fatalf("conv5_3 shape: %v", err)
	}
	if !conv53.Equal(tensor.Shape{2048, 7, 7}) {
		t.Errorf("conv5_3 shape = %v, want (2048,7,7)", conv53)
	}
	pooled, err := m.ShapeAt(fl[4].LayerIndex)
	if err != nil {
		t.Fatalf("fc6 shape: %v", err)
	}
	if !pooled.Equal(tensor.Shape{2048}) {
		t.Errorf("ResNet fc6 (pooled) shape = %v, want (2048)", pooled)
	}
}

func TestParamCountsMatchLiterature(t *testing.T) {
	// Sanity-check the derived parameter counts against the published
	// figures (±5% for our no-grouping AlexNet and BN bookkeeping).
	tests := []struct {
		model *Model
		want  int64 // published params
		tol   float64
	}{
		{AlexNet(), 61_000_000, 0.10}, // ungrouped conv2/4/5 add a few %
		{VGG16(), 138_000_000, 0.02},
		{ResNet50(), 25_600_000, 0.05},
	}
	for _, tc := range tests {
		got, err := tc.model.TotalParams()
		if err != nil {
			t.Fatalf("%s TotalParams: %v", tc.model.Name, err)
		}
		lo := float64(tc.want) * (1 - tc.tol)
		hi := float64(tc.want) * (1 + tc.tol)
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("%s params = %d, want %d ±%.0f%%", tc.model.Name, got, tc.want, tc.tol*100)
		}
	}
}

func TestFLOPCountsMatchLiterature(t *testing.T) {
	// Published single-inference costs: AlexNet ~1.5 GFLOPs (ungrouped),
	// VGG16 ~31 GFLOPs, ResNet50 ~8 GFLOPs (counting multiply+add as 2).
	tests := []struct {
		model  *Model
		lo, hi float64 // GFLOPs
	}{
		{AlexNet(), 1.0, 2.5},
		{VGG16(), 28, 34},
		{ResNet50(), 6, 10},
	}
	for _, tc := range tests {
		got, err := tc.model.TotalFLOPs()
		if err != nil {
			t.Fatalf("%s TotalFLOPs: %v", tc.model.Name, err)
		}
		g := float64(got) / 1e9
		if g < tc.lo || g > tc.hi {
			t.Errorf("%s FLOPs = %.2f G, want [%.1f, %.1f]", tc.model.Name, g, tc.lo, tc.hi)
		}
	}
}

func TestAlexNetRedundancyMatchesPaper(t *testing.T) {
	// Section 4.2.1: "partial CNN inference for fc7 (721 MFLOPS)
	// independently of fc8 (725 MFLOPS), incurring 99% redundant
	// computations for fc8". fc8's incremental cost over fc7 must be a tiny
	// fraction of its cumulative cost.
	st, err := ComputeStats(AlexNet())
	if err != nil {
		t.Fatalf("ComputeStats: %v", err)
	}
	fc7, err := st.LayerStat("fc7")
	if err != nil {
		t.Fatal(err)
	}
	fc8, err := st.LayerStat("fc8")
	if err != nil {
		t.Fatal(err)
	}
	redundant := float64(fc7.CumFLOPs) / float64(fc8.CumFLOPs)
	if redundant < 0.97 {
		t.Errorf("fc7/fc8 cumulative FLOP ratio = %.3f, want > 0.97 (paper: 99%% redundancy)", redundant)
	}
	if delta := fc8.CumFLOPs - fc7.CumFLOPs; delta >= fc8.CumFLOPs/10 {
		t.Errorf("fc8 delta FLOPs %d not small vs cumulative %d", delta, fc8.CumFLOPs)
	}
}

func TestFeatureBlowupMatchesPaper(t *testing.T) {
	// Section 1.1: "one of ResNet50's layers is 784KB but the image is only
	// 14KB". The conv4_6 raw feature is 14*14*1024*4 = 802816 B = 784 KB.
	m := ResNet50()
	s, err := m.ShapeAt(m.FeatureLayers[0].LayerIndex) // conv4_6
	if err != nil {
		t.Fatalf("ShapeAt: %v", err)
	}
	if size := s.NumElements() * 4; size != 784*1024 {
		t.Errorf("conv4_6 raw feature = %d B, want 802816 B (784 KB, paper Section 1.1)", size)
	}
}

// TestTopFeatureLayers: the paper's L for |L| = k is the k top-most feature
// layers, bottom-to-top (Section 3.3), and k must name 1..all of them.
func TestTopFeatureLayers(t *testing.T) {
	st, err := ComputeStats(AlexNet())
	if err != nil {
		t.Fatal(err)
	}
	top2, err := st.TopLayerStats(2)
	if err != nil {
		t.Fatalf("TopLayerStats: %v", err)
	}
	if top2[0].Name != "fc7" || top2[1].Name != "fc8" {
		t.Errorf("top 2 = %s, %s; want fc7, fc8", top2[0].Name, top2[1].Name)
	}
	if _, err := st.TopLayerStats(5); err == nil {
		t.Error("expected error for k beyond available layers")
	}
	if _, err := st.TopLayerStats(0); err == nil {
		t.Error("expected error for k = 0")
	}
}

// TestFeatureLayerIndex: a feature layer is found by name, and an unknown
// name is ErrNoSuchLayer.
func TestFeatureLayerIndex(t *testing.T) {
	st, err := ComputeStats(ResNet50())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := st.LayerStat("conv5_2")
	if err != nil {
		t.Fatalf("LayerStat: %v", err)
	}
	if ls.Name != "conv5_2" || ResNet50().Layers[ls.LayerIndex].Name() != "conv5_2" {
		t.Errorf("conv5_2 resolved to %s at layer %d", ls.Name, ls.LayerIndex)
	}
	if _, err := st.LayerStat("nope"); !errors.Is(err, ErrNoSuchLayer) {
		t.Errorf("unknown layer: err = %v, want ErrNoSuchLayer", err)
	}
}

func TestRealizeWeightsGuard(t *testing.T) {
	// VGG16 is above the realization limit; Tiny models are fine.
	if _, err := VGG16().RealizeWeights(1); err == nil {
		t.Error("expected realization guard to reject VGG16")
	}
	w, err := TinyVGG16().RealizeWeights(1)
	if err != nil {
		t.Fatalf("TinyVGG16 RealizeWeights: %v", err)
	}
	var payload int64
	for _, lw := range w.Layers {
		payload += lw.SizeBytes()
	}
	if payload <= 0 {
		t.Error("weights have no payload")
	}
}

func TestRealizeWeightsDeterministic(t *testing.T) {
	m := TinyAlexNet()
	w1, err := m.RealizeWeights(42)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := m.RealizeWeights(42)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Layers[0].W[0] != w2.Layers[0].W[0] || w1.Layers[4].W[7] != w2.Layers[4].W[7] {
		t.Error("weights not deterministic for equal seeds")
	}
	w3, err := m.RealizeWeights(43)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Layers[0].W[0] == w3.Layers[0].W[0] {
		t.Error("different seeds produced identical first weight")
	}
}

// TestRealizeWeightsMatchesSequential holds the parallel realization to the
// sequential loop it replaced: layer i drawn from its own (seed·1000003 + i)
// RNG at the shape the chain gives it. Run under -cpu 1,2,4 it covers one
// goroutine, fewer goroutines than layers and (for the shorter models) as
// many.
func TestRealizeWeightsMatchesSequential(t *testing.T) {
	for _, name := range tinyRoster {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42} {
			want := &Weights{}
			s := m.InputShape
			for i, l := range m.Layers {
				lw, err := l.InitWeights(s, rand.New(rand.NewSource(seed*1000003+int64(i))))
				if err != nil {
					t.Fatal(err)
				}
				want.Layers = append(want.Layers, lw)
				if s, err = l.OutShape(s); err != nil {
					t.Fatal(err)
				}
			}
			got, err := m.RealizeWeights(seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: parallel realization differs from the sequential one", name, seed)
			}
		}
	}
}

// randImage returns a deterministic random CHW image tensor.
func randImage(m *Model, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(m.InputShape...)
	d := img.Data()
	for i := range d {
		d[i] = rng.Float32()
	}
	return img
}

func TestTinyModelsEndToEndInference(t *testing.T) {
	for _, name := range []string{"tiny-alexnet", "tiny-vgg16", "tiny-resnet50"} {
		t.Run(name, func(t *testing.T) {
			m, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := m.RealizeWeights(7)
			if err != nil {
				t.Fatalf("RealizeWeights: %v", err)
			}
			out, err := fullInfer(m, w, randImage(m, 1))
			if err != nil {
				t.Fatalf("Infer: %v", err)
			}
			want, err := m.ShapeAt(m.NumLayers() - 1)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Shape().Equal(want) {
				t.Errorf("output shape = %v, want %v", out.Shape(), want)
			}
			if !slices.ContainsFunc(out.Data(), func(v float32) bool { return math.Abs(float64(v)) > 0 }) {
				t.Error("inference produced all zeros")
			}
		})
	}
}

func TestPartialInferenceComposes(t *testing.T) {
	// Definition 3.7: f̂_{0→j} == f̂_{i+1→j}(f̂_{0→i}(t)) — the invariant the
	// Staged plan relies on.
	m := TinyResNet50()
	w, err := m.RealizeWeights(7)
	if err != nil {
		t.Fatal(err)
	}
	img := randImage(m, 2)
	split := m.FeatureLayers[0].LayerIndex // conv4_6

	full, err := fullInfer(m, w, img.Clone())
	if err != nil {
		t.Fatalf("full inference: %v", err)
	}
	mid, err := m.PartialInfer(w, img.Clone(), 0, split)
	if err != nil {
		t.Fatalf("partial inference to %d: %v", split, err)
	}
	rest, err := m.PartialInfer(w, mid, split+1, m.NumLayers()-1)
	if err != nil {
		t.Fatalf("partial inference from %d: %v", split+1, err)
	}
	if !full.Shape().Equal(rest.Shape()) {
		t.Fatalf("shape mismatch: %v vs %v", full.Shape(), rest.Shape())
	}
	for i := range full.Data() {
		if diff := full.Data()[i] - rest.Data()[i]; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("composed partial inference diverges at %d: %v vs %v",
				i, full.Data()[i], rest.Data()[i])
		}
	}
}

func TestPartialInferRangeValidation(t *testing.T) {
	m := TinyAlexNet()
	w, err := m.RealizeWeights(1)
	if err != nil {
		t.Fatal(err)
	}
	img := randImage(m, 3)
	if _, err := m.PartialInfer(w, img, 5, 2); err == nil {
		t.Error("expected error for from > to")
	}
	if _, err := m.PartialInfer(w, img, -1, 2); err == nil {
		t.Error("expected error for negative from")
	}
	if _, err := m.PartialInfer(w, img, 0, 99); err == nil {
		t.Error("expected error for to out of range")
	}
	if _, err := m.PartialInfer(nil, img, 0, 1); err == nil {
		t.Error("expected error for nil weights")
	}
}

func TestFeatureVectorPoolsConvLayers(t *testing.T) {
	m := TinyAlexNet()
	w, err := m.RealizeWeights(1)
	if err != nil {
		t.Fatal(err)
	}
	fl := m.FeatureLayers[0] // conv5, 8x8x32
	raw, err := m.PartialInfer(w, randImage(m, 4), 0, fl.LayerIndex)
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := FeatureVectors(raw)
	if err != nil {
		t.Fatalf("FeatureVectors: %v", err)
	}
	if len(vecs) != 1 {
		t.Fatalf("%d vectors for one image", len(vecs))
	}
	vec := vecs[0]
	wantDim, err := m.FeatureDim(fl)
	if err != nil {
		t.Fatal(err)
	}
	if vec.NumElements() != wantDim {
		t.Errorf("feature dim = %d, want %d", vec.NumElements(), wantDim)
	}
	// conv5 of tiny-alexnet is 8x8x32 -> 2x2x32 = 128.
	if wantDim != 128 {
		t.Errorf("tiny-alexnet conv5 pooled dim = %d, want 128", wantDim)
	}
}

func TestFeatureDimFullScale(t *testing.T) {
	// AlexNet conv5 13x13x256 pooled to 2x2 grid = 1024 features; fc6 = 4096.
	m := AlexNet()
	want := map[string]int{"conv5": 1024, "fc6": 4096, "fc7": 4096, "fc8": 1000}
	for _, fl := range m.FeatureLayers {
		dim, err := m.FeatureDim(fl)
		if err != nil {
			t.Fatal(err)
		}
		if dim != want[fl.Name] {
			t.Errorf("%s feature dim = %d, want %d", fl.Name, dim, want[fl.Name])
		}
		delete(want, fl.Name)
	}
	if len(want) != 0 {
		t.Errorf("AlexNet lacks feature layers %v", want)
	}
}

func TestStatsTopLayerStats(t *testing.T) {
	st, err := ComputeStats(AlexNet())
	if err != nil {
		t.Fatal(err)
	}
	top, err := st.TopLayerStats(2)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Name != "fc7" || top[1].Name != "fc8" {
		t.Fatalf("top 2 stats = %s, %s; want fc7, fc8", top[0].Name, top[1].Name)
	}
	if _, err := st.TopLayerStats(99); err == nil {
		t.Error("expected error for oversized k")
	}
}

func TestStatsFootprintOrdering(t *testing.T) {
	// VGG16 is the largest model; ResNet50 the smallest serialized of the
	// trio ("They complement each other in terms of model size", Section 5).
	var sizes []int64
	for _, name := range []string{"alexnet", "vgg16", "resnet50"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ComputeStats(m)
		if err != nil {
			t.Fatal(err)
		}
		if st.MemBytes <= st.SerializedBytes {
			t.Errorf("%s: runtime footprint %d not above serialized %d",
				name, st.MemBytes, st.SerializedBytes)
		}
		sizes = append(sizes, st.SerializedBytes)
	}
	if !(sizes[1] > sizes[0] && sizes[0] > sizes[2]) {
		t.Errorf("serialized sizes (alexnet, vgg16, resnet50) = %v; want vgg > alexnet > resnet", sizes)
	}
}

func TestByNameAndRoster(t *testing.T) {
	for _, name := range RosterNames() {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("lenet"); err == nil {
		t.Error("expected error for unknown model")
	}
	tiny, err := ByName("tiny-resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Name != "tiny-resnet50" {
		t.Errorf("ByName(tiny-resnet50) = %s", tiny.Name)
	}
	if _, err := ByName("tiny-bert"); err == nil {
		t.Error("expected error for unknown tiny variant")
	}
}

func TestTinyMirrorsFullFeatureLayers(t *testing.T) {
	// Every full-scale model and its Tiny variant expose the same feature
	// layer names so experiments can swap between them.
	for _, name := range []string{"alexnet", "vgg16", "resnet50"} {
		full, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tiny, err := ByName("tiny-" + name)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.FeatureLayers) != len(tiny.FeatureLayers) {
			t.Errorf("%s: %d feature layers vs tiny's %d",
				name, len(full.FeatureLayers), len(tiny.FeatureLayers))
			continue
		}
		for i := range full.FeatureLayers {
			if full.FeatureLayers[i].Name != tiny.FeatureLayers[i].Name {
				t.Errorf("%s feature %d: %s vs tiny %s", name, i,
					full.FeatureLayers[i].Name, tiny.FeatureLayers[i].Name)
			}
		}
	}
}

func TestBottleneckProjectionRules(t *testing.T) {
	b := &Bottleneck{LayerName: "b", Mid: 8, Stride: 1}
	// Input channels == 4*Mid and stride 1: identity shortcut, 3 sublayers.
	ls, err := b.sublayers(tensor.Shape{32, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 3 {
		t.Errorf("identity block has %d sublayers, want 3", len(ls))
	}
	// Channel mismatch forces projection.
	ls, err = b.sublayers(tensor.Shape{16, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 4 {
		t.Errorf("projection block has %d sublayers, want 4", len(ls))
	}
	// Stride 2 forces projection too.
	b2 := &Bottleneck{LayerName: "b2", Mid: 8, Stride: 2}
	ls, err = b2.sublayers(tensor.Shape{32, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 4 {
		t.Errorf("strided block has %d sublayers, want 4", len(ls))
	}
}

func TestBottleneckOutShape(t *testing.T) {
	b := &Bottleneck{LayerName: "b", Mid: 16, Stride: 2, Project: true}
	out, err := b.OutShape(tensor.Shape{32, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{64, 4, 4}) {
		t.Errorf("OutShape = %v, want (64,4,4)", out)
	}
	if _, err := b.OutShape(tensor.Shape{32}); err == nil {
		t.Error("expected error for non-CHW input")
	}
}

func TestModelShapeAtErrors(t *testing.T) {
	m := TinyAlexNet()
	if _, err := m.ShapeAt(-2); err == nil {
		t.Error("expected error for index < -1")
	}
	if _, err := m.ShapeAt(len(m.Layers)); err == nil {
		t.Error("expected error for index beyond chain")
	}
	in, err := m.ShapeAt(-1)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Equal(m.InputShape) {
		t.Errorf("ShapeAt(-1) = %v, want input shape %v", in, m.InputShape)
	}
}

func TestSummary(t *testing.T) {
	out, err := Summary(TinyAlexNet())
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}
	for _, want := range []string{"tiny-alexnet", "conv5", "fc8", "feature layer", "total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Full-scale models summarize too (no weight realization involved).
	if _, err := Summary(ResNet50()); err != nil {
		t.Errorf("ResNet50 summary: %v", err)
	}
	// A model with an incompatible chain reports an error.
	bad := &Model{Name: "bad", InputShape: tensor.Shape{1, 4, 4},
		Layers: []Layer{conv("c", 3, 8, 3, 1, 1)}} // expects 3 channels
	if _, err := Summary(bad); err == nil {
		t.Error("incompatible chain accepted")
	}
}

func TestLayerWeightsSizeBytes(t *testing.T) {
	var nilW *LayerWeights
	if nilW.SizeBytes() != 0 {
		t.Error("nil weights should have zero size")
	}
	w := &LayerWeights{W: make([]float32, 10), B: make([]float32, 2),
		Sub: []*LayerWeights{{W: make([]float32, 5)}}}
	if got, want := w.SizeBytes(), int64((10+2+5)*4); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}
