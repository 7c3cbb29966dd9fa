package cnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// applySeparate is a conv layer the way it ran before the epilogue was fused
// into the kernel: the convolution, then a batch-norm pass, then a ReLU pass,
// each over the whole activation. It is the reference the fused Apply is held
// to.
func applySeparate(t *testing.T, l Layer, in *tensor.Tensor, w *LayerWeights) *tensor.Tensor {
	t.Helper()
	var (
		spec tensor.Conv2DSpec
		bn   bool
		relu bool
	)
	switch l := l.(type) {
	case *Conv:
		spec, relu = l.Spec, l.ReLU
	case *BNConv:
		spec, bn, relu = l.Spec, true, l.ReLU
	default:
		t.Fatalf("applySeparate: %T is not a conv layer", l)
	}
	out, err := tensor.Conv2D(in, spec, w.W, w.B)
	if err != nil {
		t.Fatal(err)
	}
	if bn {
		scale, shift, err := tensor.BatchNormAffine(w.Gamma, w.Beta, w.Mean, w.Var, bnEps)
		if err != nil {
			t.Fatal(err)
		}
		hw := out.NumElements() / len(scale)
		for i, v := range out.Data() {
			out.Data()[i] = v*scale[i/hw] + shift[i/hw]
		}
	}
	if relu {
		tensor.ReLU(out)
	}
	return out
}

// perturbBN moves batch-norm statistics off their identity initialization so
// the folded affine is exercised with real scales and shifts.
func perturbBN(w *LayerWeights, rng *rand.Rand) {
	for i := range w.Gamma {
		w.Gamma[i] = 0.5 + rng.Float32()
		w.Beta[i] = rng.Float32() - 0.5
		w.Mean[i] = rng.Float32() - 0.5
		w.Var[i] = 0.25 + rng.Float32()
	}
	for _, sub := range w.Sub {
		perturbBN(sub, rng)
	}
}

func maxDiff(a, b *tensor.Tensor) float64 {
	var m float64
	for i, v := range a.Data() {
		m = math.Max(m, math.Abs(float64(v-b.Data()[i])))
	}
	return m
}

// TestFusedEpilogueMatchesSeparatePasses holds Conv.Apply, BNConv.Apply and a
// whole tiny-resnet50 bottleneck (three fused BN-convs, a fused projection,
// the residual add and the final ReLU) to the same layers computed with
// separate passes.
func TestFusedEpilogueMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := tensor.New(6, 12, 12)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.NormFloat64())
	}
	for _, l := range []Layer{
		&Conv{LayerName: "conv", ReLU: true, Spec: tensor.Conv2DSpec{InChannels: 6, OutChannels: 10, Kernel: 3, Stride: 1, Pad: 1}},
		&Conv{LayerName: "conv-linear", Spec: tensor.Conv2DSpec{InChannels: 6, OutChannels: 5, Kernel: 1, Stride: 1}},
		&BNConv{LayerName: "bnconv", ReLU: true, Spec: tensor.Conv2DSpec{InChannels: 6, OutChannels: 9, Kernel: 3, Stride: 2, Pad: 1}},
		&BNConv{LayerName: "bnconv-linear", Spec: tensor.Conv2DSpec{InChannels: 6, OutChannels: 8, Kernel: 1, Stride: 1}},
	} {
		w, err := l.InitWeights(in.Shape(), rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.B {
			w.B[i] = rng.Float32() - 0.5
		}
		perturbBN(w, rng)
		got, err := l.Apply(in, w)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(got, applySeparate(t, l, in, w)); d > 1e-5 {
			t.Errorf("%s: fused Apply differs from separate passes by %g", l.Name(), d)
		}
	}

	// The first block of tiny-resnet50's last stage: stride 2, projection
	// shortcut, and a 2×2 output — N = 4, below the kernel's tile width.
	block := &Bottleneck{LayerName: "conv5_1", Mid: 32, Stride: 2, Project: true}
	bin := tensor.New(96, 4, 4)
	for i := range bin.Data() {
		bin.Data()[i] = float32(rng.NormFloat64())
	}
	bw, err := block.InitWeights(bin.Shape(), rng)
	if err != nil {
		t.Fatal(err)
	}
	perturbBN(bw, rng)
	got, err := block.Apply(bin, bw)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := block.sublayers(bin.Shape())
	if err != nil {
		t.Fatal(err)
	}
	want := bin
	for i, l := range ls[:3] {
		want = applySeparate(t, l, want, bw.Sub[i])
	}
	if err := tensor.AddInPlace(want, applySeparate(t, ls[3], bin, bw.Sub[3])); err != nil {
		t.Fatal(err)
	}
	tensor.ReLU(want)
	if !got.Shape().Equal(tensor.Shape{128, 2, 2}) {
		t.Fatalf("bottleneck output shape %v", got.Shape())
	}
	if d := maxDiff(got, want); d > 1e-4 {
		t.Errorf("bottleneck: fused differs from separate passes by %g", d)
	}
}
