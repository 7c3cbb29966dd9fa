package cnn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestDenseBlockShapes(t *testing.T) {
	d := &DenseBlock{LayerName: "d", Convs: 3, Growth: 8}
	out, err := d.OutShape(tensor.Shape{16, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{16 + 24, 8, 8}) {
		t.Errorf("OutShape = %v, want (40,8,8)", out)
	}
	if _, err := d.OutShape(tensor.Shape{16}); err == nil {
		t.Error("rank-1 input accepted")
	}
	bad := &DenseBlock{LayerName: "b", Convs: 0, Growth: 8}
	if _, err := bad.OutShape(tensor.Shape{16, 8, 8}); err == nil {
		t.Error("zero convs accepted")
	}
}

func TestDenseBlockApplyGrowsChannels(t *testing.T) {
	d := &DenseBlock{LayerName: "d", Convs: 2, Growth: 4}
	in := tensor.New(8, 6, 6)
	for i := range in.Data() {
		in.Data()[i] = float32(i%7) / 7
	}
	w, err := d.InitWeights(in.Shape(), testRNG())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Apply(in, w)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !out.Shape().Equal(tensor.Shape{16, 6, 6}) {
		t.Fatalf("output shape = %v, want (16,6,6)", out.Shape())
	}
	// Dense connectivity: the first input channels pass through unchanged
	// (the block emits the concatenation starting with its input).
	for i := 0; i < 8*6*6; i++ {
		if out.Data()[i] != in.Data()[i] {
			t.Fatalf("input channels not preserved at %d", i)
		}
	}
}

func TestDenseBlockParamsAndFLOPs(t *testing.T) {
	d := &DenseBlock{LayerName: "d", Convs: 2, Growth: 4}
	in := tensor.Shape{8, 6, 6}
	// conv1: 8→4 (3x3), conv2: 12→4 (3x3); params = 9*8*4+4*4 + 9*12*4+4*4.
	want := int64(9*8*4+16) + int64(9*12*4+16)
	if got := d.Params(in); got != want {
		t.Errorf("Params = %d, want %d", got, want)
	}
	if d.FLOPs(in) <= 0 {
		t.Error("FLOPs should be positive")
	}
	// The second conv sees more channels, so FLOPs exceed 2× the first
	// conv's cost.
	single := (&BNConv{Spec: tensor.Conv2DSpec{InChannels: 8, OutChannels: 4, Kernel: 3, Stride: 1, Pad: 1}}).FLOPs(in)
	if d.FLOPs(in) <= 2*single {
		t.Errorf("dense FLOPs %d should exceed 2x first conv %d", d.FLOPs(in), 2*single)
	}
}

func TestTinyDenseNetEndToEnd(t *testing.T) {
	m := TinyDenseNet()
	w, err := m.RealizeWeights(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fullInfer(m, w, randImage(m, 1))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !out.Shape().Equal(tensor.Shape{32}) {
		t.Errorf("output shape = %v, want (32)", out.Shape())
	}
	// Feature dims: dense1 pooled 2×2×40 = 160; dense2 pooled 2×2×48 = 192;
	// gap = 48.
	wantDims := []int{160, 192, 48}
	for i, fl := range m.FeatureLayers {
		dim, err := m.FeatureDim(fl)
		if err != nil {
			t.Fatal(err)
		}
		if dim != wantDims[i] {
			t.Errorf("%s dim = %d, want %d", fl.Name, dim, wantDims[i])
		}
	}
}

func TestTinyDenseNetPartialInferenceComposes(t *testing.T) {
	// The Staged invariant must hold through DAG blocks too.
	m := TinyDenseNet()
	w, err := m.RealizeWeights(5)
	if err != nil {
		t.Fatal(err)
	}
	img := randImage(m, 2)
	split := m.FeatureLayers[0].LayerIndex // dense1
	full, err := fullInfer(m, w, img.Clone())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := m.PartialInfer(w, img.Clone(), 0, split)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := m.PartialInfer(w, mid, split+1, m.NumLayers()-1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Data() {
		if d := full.Data()[i] - rest.Data()[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("composed inference diverges at %d", i)
		}
	}
}

func TestTinyDenseNetInRoster(t *testing.T) {
	m, err := ByName("tiny-densenet")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStats(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Params <= 0 || st.TotalFLOPs <= 0 {
		t.Error("stats not derived")
	}
	if len(st.FeatureLayers) != 3 {
		t.Errorf("feature layer stats = %d, want 3", len(st.FeatureLayers))
	}
	found := false
	for _, n := range RosterNames() {
		if n == "tiny-densenet" {
			found = true
		}
	}
	if !found {
		t.Error("tiny-densenet missing from roster")
	}
}

func testRNG() *rand.Rand { return rand.New(rand.NewSource(17)) }
