package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func TestConv2DIdentityKernel(t *testing.T) {
	// 1x1 kernel with weight 1 and zero bias is the identity.
	in := MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	spec := Conv2DSpec{InChannels: 1, OutChannels: 1, Kernel: 1, Stride: 1}
	out, err := Conv2D(in, spec, []float32{1}, []float32{0})
	if err != nil {
		t.Fatalf("Conv2D: %v", err)
	}
	for i, v := range out.Data() {
		if v != in.Data()[i] {
			t.Fatalf("identity conv mismatch at %d: %v vs %v", i, v, in.Data()[i])
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 kernel of all ones, stride 1, no pad: each output is the
	// sum of a 2x2 window.
	in := MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	spec := Conv2DSpec{InChannels: 1, OutChannels: 1, Kernel: 2, Stride: 1}
	out, err := Conv2D(in, spec, []float32{1, 1, 1, 1}, []float32{0})
	if err != nil {
		t.Fatalf("Conv2D: %v", err)
	}
	want := []float32{12, 16, 24, 28}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	in := New(1, 4, 4)
	in.fill(1)
	spec := Conv2DSpec{InChannels: 1, OutChannels: 1, Kernel: 3, Stride: 2, Pad: 1}
	out, err := Conv2D(in, spec, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, []float32{0})
	if err != nil {
		t.Fatalf("Conv2D: %v", err)
	}
	if !out.Shape().Equal(Shape{1, 2, 2}) {
		t.Fatalf("shape = %v, want (1,2,2)", out.Shape())
	}
	// Corner window covers 2x2=4 ones; others vary. Top-left at (-1,-1) offset
	// covers rows 0..1, cols 0..1 => 4.
	if out.At(0, 0, 0) != 4 {
		t.Errorf("padded corner = %v, want 4", out.At(0, 0, 0))
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 2, 2)
	spec := Conv2DSpec{InChannels: 1, OutChannels: 2, Kernel: 1, Stride: 1}
	out, err := Conv2D(in, spec, []float32{1, 1}, []float32{3, -1})
	if err != nil {
		t.Fatalf("Conv2D: %v", err)
	}
	if out.At(0, 0, 0) != 3 || out.At(1, 0, 0) != -1 {
		t.Errorf("bias not applied: %v, %v", out.At(0, 0, 0), out.At(1, 0, 0))
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	// Two input channels; filter sums both.
	in := MustFromSlice([]float32{
		1, 2, 3, 4, // channel 0
		10, 20, 30, 40, // channel 1
	}, 2, 2, 2)
	spec := Conv2DSpec{InChannels: 2, OutChannels: 1, Kernel: 1, Stride: 1}
	out, err := Conv2D(in, spec, []float32{1, 1}, []float32{0})
	if err != nil {
		t.Fatalf("Conv2D: %v", err)
	}
	want := []float32{11, 22, 33, 44}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConv2DShapeErrors(t *testing.T) {
	in := New(1, 2, 2)
	spec := Conv2DSpec{InChannels: 2, OutChannels: 1, Kernel: 1, Stride: 1}
	if _, err := Conv2D(in, spec, []float32{1, 1}, []float32{0}); err == nil {
		t.Error("expected channel-mismatch error")
	}
	spec = Conv2DSpec{InChannels: 1, OutChannels: 1, Kernel: 5, Stride: 1}
	if _, err := Conv2D(in, spec, make([]float32, 25), []float32{0}); err == nil {
		t.Error("expected kernel-larger-than-input error")
	}
	spec = Conv2DSpec{InChannels: 1, OutChannels: 1, Kernel: 1, Stride: 1}
	if _, err := Conv2D(in, spec, []float32{1, 2}, []float32{0}); err == nil {
		t.Error("expected weight-length error")
	}
	if _, err := Conv2D(in, spec, []float32{1}, []float32{0, 0}); err == nil {
		t.Error("expected bias-length error")
	}
}

func TestMaxPool2D(t *testing.T) {
	in := MustFromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, err := MaxPool2D(in, PoolSpec{Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatalf("MaxPool2D: %v", err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// TestMaxPool2DTiledMatchesWindows checks the unpadded kernel == stride path
// against a window-by-window maximum, on a dirty slab, for window sizes that
// do and do not divide the input (the remainder rows and columns are dropped,
// as OutShape says).
func TestMaxPool2DTiledMatchesWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, c := range []struct{ ch, h, w, k int }{{3, 8, 8, 2}, {2, 7, 9, 2}, {2, 9, 10, 3}, {1, 5, 4, 4}, {2, 3, 3, 1}} {
		in := randTensor(rng, c.ch, c.h, c.w)
		dirty := getSlab(c.ch * (c.h / c.k) * (c.w / c.k))
		for i := range dirty {
			dirty[i] = float32(math.NaN())
		}
		putSlab(dirty)
		out, err := MaxPool2D(in, PoolSpec{Kernel: c.k, Stride: c.k})
		if err != nil {
			t.Fatal(err)
		}
		if want := (Shape{c.ch, c.h / c.k, c.w / c.k}); !out.Shape().Equal(want) {
			t.Fatalf("%+v: shape %v, want %v", c, out.Shape(), want)
		}
		for ch := 0; ch < c.ch; ch++ {
			for oy := 0; oy < c.h/c.k; oy++ {
				for ox := 0; ox < c.w/c.k; ox++ {
					want := float32(math.Inf(-1))
					for ky := 0; ky < c.k; ky++ {
						for kx := 0; kx < c.k; kx++ {
							want = max(want, in.At(ch, oy*c.k+ky, ox*c.k+kx))
						}
					}
					if got := out.At(ch, oy, ox); got != want {
						t.Fatalf("%+v: out[%d,%d,%d] = %v, want %v", c, ch, oy, ox, got, want)
					}
				}
			}
		}
	}
}

// TestMaxPoolPropagatesNaN pins what every max-pooling path does with a
// non-finite activation: a window holding a NaN pools to NaN (the builtin
// max), on the tiled path, the clipped-window path and GridMaxPool alike,
// and windows that do not hold it are unaffected.
func TestMaxPoolPropagatesNaN(t *testing.T) {
	in := New(1, 4, 4)
	for i := range in.Data() {
		in.Data()[i] = float32(i)
	}
	in.Set(float32(math.NaN()), 0, 1, 0) // the top-left 2×2 quadrant
	pools := map[string]func() (*Tensor, error){
		"tiled 2/2":    func() (*Tensor, error) { return MaxPool2D(in, PoolSpec{Kernel: 2, Stride: 2}) },
		"windowed 3/2": func() (*Tensor, error) { return MaxPool2D(in, PoolSpec{Kernel: 3, Stride: 2, Pad: 1}) },
		"grid 2":       func() (*Tensor, error) { return GridMaxPool(in, 2) },
	}
	for name, pool := range pools {
		out, err := pool()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Shape().Equal(Shape{1, 2, 2}) {
			t.Fatalf("%s: shape %v", name, out.Shape())
		}
		if v := out.At(0, 0, 0); !math.IsNaN(float64(v)) {
			t.Errorf("%s: window with a NaN pooled to %v, want NaN", name, v)
		}
		if v := out.At(0, 1, 1); v != 15 {
			t.Errorf("%s: NaN-free window pooled to %v, want 15", name, v)
		}
	}
}

func TestGridMaxPool(t *testing.T) {
	in := New(3, 8, 8)
	for i := range in.Data() {
		in.Data()[i] = float32(i)
	}
	out, err := GridMaxPool(in, 2)
	if err != nil {
		t.Fatalf("GridMaxPool: %v", err)
	}
	if !out.Shape().Equal(Shape{3, 2, 2}) {
		t.Fatalf("shape = %v, want (3,2,2)", out.Shape())
	}
	// Shape predictor must agree with actual output.
	if !GridPooledShape(in.Shape(), 2).Equal(out.Shape()) {
		t.Errorf("GridPooledShape = %v, actual %v", GridPooledShape(in.Shape(), 2), out.Shape())
	}
}

// TestGridMaxPoolNoAliasWhenSmall is the regression test for the aliasing
// corruption bug: GridMaxPool used to return the input tensor itself when the
// map was already at or below the grid size, so downstream in-place ops
// (ReLU, BatchNorm, AddInPlace) on the pooled result silently corrupted
// feature tables handed out by the feature store and share.Handoff. The
// pooled result must be value-identical but storage-independent.
func TestGridMaxPoolNoAliasWhenSmall(t *testing.T) {
	in := New(5, 2, 2)
	for i := range in.Data() {
		in.Data()[i] = float32(i + 1)
	}
	cached := in.Clone() // stands in for a feature-store/handoff copy
	out, err := GridMaxPool(in, 2)
	if err != nil {
		t.Fatalf("GridMaxPool: %v", err)
	}
	if !out.Shape().Equal(in.Shape()) {
		t.Fatalf("shape = %v, want %v", out.Shape(), in.Shape())
	}
	for i, v := range out.Data() {
		if v != in.Data()[i] {
			t.Fatalf("pooled[%d] = %v, want %v", i, v, in.Data()[i])
		}
	}
	if SameStorage(out, in) {
		t.Fatal("GridMaxPool returned the input aliased; downstream in-place ops would corrupt the source")
	}
	// Mutate the pooled result the way a downstream in-place op would; the
	// source map and its cached copy must be untouched.
	ReLU(out)
	out.fill(-42)
	for i, v := range in.Data() {
		if v != float32(i+1) {
			t.Fatalf("source[%d] corrupted to %v after mutating pooled result", i, v)
		}
		if cached.Data()[i] != float32(i+1) {
			t.Fatalf("cached copy[%d] corrupted to %v", i, cached.Data()[i])
		}
	}
	if !GridPooledShape(in.Shape(), 2).Equal(in.Shape()) {
		t.Error("GridPooledShape should be identity for small inputs")
	}
}

// TestGridMaxPoolNonSquare covers the per-axis kernel/stride derivation:
// height and width reduce independently, so non-square CHW inputs land on an
// exact grid (or pass an already-small axis through), and GridPooledShape
// agrees with the computed output for every case.
func TestGridMaxPoolNonSquare(t *testing.T) {
	cases := []struct {
		h, w  int
		wantH int
		wantW int
	}{
		{8, 12, 2, 2},  // both axes reduce
		{12, 8, 2, 2},  // transposed
		{9, 5, 2, 2},   // both axes reduce, odd sizes
		{2, 10, 2, 2},  // height already at grid, width reduces
		{10, 2, 2, 2},  // width already at grid, height reduces
		{1, 7, 1, 2},   // height below grid passes through
		{3, 100, 2, 2}, // extreme aspect ratio
		{2, 2, 2, 2},   // fully small: pass-through clone
	}
	for _, tc := range cases {
		in := New(1, tc.h, tc.w)
		for i := range in.Data() {
			in.Data()[i] = float32(i)
		}
		out, err := GridMaxPool(in, 2)
		if err != nil {
			t.Fatalf("GridMaxPool(%dx%d): %v", tc.h, tc.w, err)
		}
		want := Shape{1, tc.wantH, tc.wantW}
		if !out.Shape().Equal(want) {
			t.Errorf("GridMaxPool(%dx%d) shape = %v, want %v", tc.h, tc.w, out.Shape(), want)
		}
		if got := GridPooledShape(in.Shape(), 2); !got.Equal(out.Shape()) {
			t.Errorf("GridPooledShape(%dx%d) = %v, actual pooled shape %v", tc.h, tc.w, got, out.Shape())
		}
		// Max pooling with ascending fill: the global max (last element) must
		// appear in the last output cell, and every output must be one of the
		// input values.
		d := out.Data()
		if d[len(d)-1] != float32(tc.h*tc.w-1) {
			t.Errorf("GridMaxPool(%dx%d): last cell = %v, want %v", tc.h, tc.w, d[len(d)-1], float32(tc.h*tc.w-1))
		}
	}
}

func TestConcatChannels(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	b := MustFromSlice([]float32{5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 2)
	out, err := ConcatChannels(a, b)
	if err != nil {
		t.Fatalf("ConcatChannels: %v", err)
	}
	if !out.Shape().Equal(Shape{3, 2, 2}) {
		t.Fatalf("shape = %v, want (3,2,2)", out.Shape())
	}
	want := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConcatChannelsErrors(t *testing.T) {
	if _, err := ConcatChannels(); err == nil {
		t.Error("empty concat accepted")
	}
	if _, err := ConcatChannels(New(4)); err == nil {
		t.Error("rank-1 input accepted")
	}
	if _, err := ConcatChannels(New(1, 2, 2), New(1, 3, 3)); err == nil {
		t.Error("spatial mismatch accepted")
	}
}

func TestReLU(t *testing.T) {
	a := MustFromSlice([]float32{-1, 0, 2, -3}, 4)
	ReLU(a)
	want := []float32{0, 0, 2, 0}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("relu[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestAddInPlace(t *testing.T) {
	a := MustFromSlice([]float32{1, 2}, 2)
	b := MustFromSlice([]float32{10, 20}, 2)
	if err := AddInPlace(a, b); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	if a.Data()[0] != 11 || a.Data()[1] != 22 {
		t.Errorf("add result = %v", a.Data())
	}
	if err := AddInPlace(a, New(3)); err == nil {
		t.Error("expected shape error")
	}
}

func TestMatVec(t *testing.T) {
	// [[1,2],[3,4]] * [1,1] + [0,10] = [3,17]
	out, err := MatVec([]float32{1, 2, 3, 4}, 2, 2, []float32{1, 1}, []float32{0, 10})
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if out[0] != 3 || out[1] != 17 {
		t.Errorf("MatVec = %v, want [3 17]", out)
	}
	if _, err := MatVec([]float32{1}, 2, 2, []float32{1, 1}, []float32{0, 0}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBatchNorm(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	// gamma=2, beta=1, mean=2.5, var=1.25 -> normalized then scaled.
	err := BatchNorm(a, []float32{2}, []float32{1}, []float32{2.5}, []float32{1.25}, 0)
	if err != nil {
		t.Fatalf("BatchNorm: %v", err)
	}
	sd := float32(math.Sqrt(1.25))
	want := []float32{
		2*(1-2.5)/sd + 1, 2*(2-2.5)/sd + 1,
		2*(3-2.5)/sd + 1, 2*(4-2.5)/sd + 1,
	}
	for i, v := range a.Data() {
		if !almostEqual(v, want[i], 1e-5) {
			t.Fatalf("bn[%d] = %v, want %v", i, v, want[i])
		}
	}
	if err := BatchNorm(a, []float32{1, 2}, []float32{0}, []float32{0}, []float32{1}, 0); err == nil {
		t.Error("expected param-length error")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := MustFromSlice([]float32{
		1, 2, 3, 4, // channel 0: mean 2.5
		10, 10, 10, 10, // channel 1: mean 10
	}, 2, 2, 2)
	out, err := GlobalAvgPool(in)
	if err != nil {
		t.Fatalf("GlobalAvgPool: %v", err)
	}
	if !out.Shape().Equal(Shape{2}) {
		t.Fatalf("shape = %v, want (2)", out.Shape())
	}
	if out.Data()[0] != 2.5 || out.Data()[1] != 10 {
		t.Errorf("gap = %v", out.Data())
	}
}

// Property: conv output shape predicted by OutShape always matches the actual
// tensor produced by Conv2D.
func TestConvShapeConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(hSeed, kSeed, sSeed, pSeed uint8) bool {
		h := int(hSeed%12) + 4
		k := int(kSeed%3) + 1
		s := int(sSeed%2) + 1
		p := int(pSeed % 2)
		spec := Conv2DSpec{InChannels: 1, OutChannels: 2, Kernel: k, Stride: s, Pad: p}
		in := New(1, h, h)
		for i := range in.Data() {
			in.Data()[i] = rng.Float32()
		}
		want, err := spec.OutShape(in.Shape())
		if err != nil {
			return true // invalid combo; nothing to check
		}
		w := make([]float32, spec.WeightCount())
		out, err := Conv2D(in, spec, w, []float32{0, 0})
		return err == nil && out.Shape().Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ReLU output is always non-negative and idempotent.
func TestReLUProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		tt := MustFromSlice(append([]float32(nil), vals...), len(vals))
		ReLU(tt)
		for _, v := range tt.Data() {
			if v < 0 {
				return false
			}
		}
		before := append([]float32(nil), tt.Data()...)
		ReLU(tt)
		for i, v := range tt.Data() {
			if v != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: max pooling never produces a value absent from the input window
// range: output max <= input max and output min >= input min.
func TestMaxPoolBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed uint8) bool {
		h := int(seed%6)*2 + 4
		in := New(2, h, h)
		for i := range in.Data() {
			in.Data()[i] = rng.Float32()*2 - 1
		}
		out, err := MaxPool2D(in, PoolSpec{Kernel: 2, Stride: 2})
		if err != nil {
			return false
		}
		var inMax, outMax float32 = -2, -2
		for _, v := range in.Data() {
			if v > inMax {
				inMax = v
			}
		}
		for _, v := range out.Data() {
			if v > outMax {
				outMax = v
			}
		}
		return outMax <= inMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
