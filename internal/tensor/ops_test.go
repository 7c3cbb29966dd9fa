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
	if out.at(0, 0, 0) != 4 {
		t.Errorf("padded corner = %v, want 4", out.at(0, 0, 0))
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 2, 2)
	spec := Conv2DSpec{InChannels: 1, OutChannels: 2, Kernel: 1, Stride: 1}
	out, err := Conv2D(in, spec, []float32{1, 1}, []float32{3, -1})
	if err != nil {
		t.Fatalf("Conv2D: %v", err)
	}
	if out.at(0, 0, 0) != 3 || out.at(1, 0, 0) != -1 {
		t.Errorf("bias not applied: %v, %v", out.at(0, 0, 0), out.at(1, 0, 0))
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

// TestMaxPool2DMatchesWindows holds every form of max pooling — tiled 2/2
// and 3/3 with the remainder rows and columns dropped, overlapping 3/2,
// padded 3/2/1 (tiny-resnet50's stem), a window larger than the input, and
// windows lying entirely in the padding — to a window-by-window maximum over
// the clipped window, on a slab dirtied with NaN, under both kernel bodies.
// A window with no input element pools to 0. The 2/2 cases with outputs 17
// and 20 wide run whole 8-output steps of the assembly body plus a tail, one
// of them over a (C, N, H, W) batch.
func TestMaxPool2DMatchesWindows(t *testing.T) {
	forEachKernelBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, c := range []struct {
			name        string
			shape       Shape
			spec        PoolSpec
			paddingOnly bool // some window holds no input element
		}{
			{name: "tiled 2/2", shape: Shape{3, 8, 8}, spec: PoolSpec{Kernel: 2, Stride: 2}},
			{name: "tiled 2/2 remainder", shape: Shape{2, 7, 9}, spec: PoolSpec{Kernel: 2, Stride: 2}},
			{name: "tiled 2/2 wide", shape: Shape{2, 34, 36}, spec: PoolSpec{Kernel: 2, Stride: 2}},
			{name: "tiled 2/2 wide batch", shape: Shape{3, 2, 18, 40}, spec: PoolSpec{Kernel: 2, Stride: 2}},
			{name: "tiled 2/2 wide remainder", shape: Shape{1, 3, 5, 35}, spec: PoolSpec{Kernel: 2, Stride: 2}},
			{name: "tiled 3/3 remainder", shape: Shape{2, 9, 10}, spec: PoolSpec{Kernel: 3, Stride: 3}},
			{name: "tiled 4/4 one window", shape: Shape{1, 5, 4}, spec: PoolSpec{Kernel: 4, Stride: 4}},
			{name: "tiled 1/1", shape: Shape{2, 3, 3}, spec: PoolSpec{Kernel: 1, Stride: 1}},
			{name: "overlapping 3/2", shape: Shape{2, 9, 11}, spec: PoolSpec{Kernel: 3, Stride: 2}},
			{name: "padded 3/2/1 stem", shape: Shape{16, 32, 32}, spec: PoolSpec{Kernel: 3, Stride: 2, Pad: 1}},
			{name: "padded 3/2/1 odd", shape: Shape{2, 7, 10}, spec: PoolSpec{Kernel: 3, Stride: 2, Pad: 1}},
			{name: "k > input", shape: Shape{2, 3, 2}, spec: PoolSpec{Kernel: 5, Stride: 1, Pad: 2}},
			{name: "padding-only windows", shape: Shape{2, 1, 2}, spec: PoolSpec{Kernel: 1, Stride: 1, Pad: 1}, paddingOnly: true},
			{name: "padding-only corner", shape: Shape{1, 2, 2}, spec: PoolSpec{Kernel: 2, Stride: 3, Pad: 2}, paddingOnly: true},
		} {
			in := randTensor(rng, c.shape...)
			shape, err := c.spec.OutShape(in.Shape())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			dirty := getSlab(shape.NumElements())
			for i := range dirty {
				dirty[i] = float32(math.NaN())
			}
			putSlab(dirty)
			out, err := MaxPool2D(in, c.spec)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !out.Shape().Equal(shape) {
				t.Fatalf("%s: shape %v, want %v", c.name, out.Shape(), shape)
			}
			want, empty := poolWindows(in, c.spec)
			if i, ok := sameFloats(out.Data(), want); !ok {
				t.Fatalf("%s: out[%d] = %v, want %v", c.name, i, out.Data()[i], want[i])
			}
			if c.paddingOnly != (empty > 0) {
				t.Errorf("%s: %d windows lie entirely in the padding", c.name, empty)
			}
		}
	})
}

// poolWindows is the window-by-window reference for MaxPool2D over a CHW
// image or a (C, N, H, W) batch: each output is the builtin max over its
// window clipped to the input, or 0 (counted in empty) when the window holds
// no input element.
func poolWindows(in *Tensor, spec PoolSpec) (want []float32, empty int) {
	c, nb, h, w, _ := planes(in.Shape())
	k, s, pad := spec.Kernel, spec.Stride, spec.Pad
	outH, outW := (h+2*pad-k)/s+1, (w+2*pad-k)/s+1
	src := in.Data()
	for p := 0; p < c*nb; p++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				acc, n := float32(math.Inf(-1)), 0
				for iy := oy*s - pad; iy < oy*s-pad+k; iy++ {
					for ix := ox*s - pad; ix < ox*s-pad+k; ix++ {
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							acc, n = max(acc, src[(p*h+iy)*w+ix]), n+1
						}
					}
				}
				if n == 0 {
					acc, empty = 0, empty+1
				}
				want = append(want, acc)
			}
		}
	}
	return want, empty
}

// sameFloats reports whether got and want are equal bit for bit, except that
// any NaN matches any NaN; i is the first index where they differ.
func sameFloats(got, want []float32) (i int, ok bool) {
	if len(got) != len(want) {
		return min(len(got), len(want)), false
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) && !(v != v && want[i] != want[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestMaxPool2x2Bitwise pins the row-pair contract's three non-finite and
// signed-zero cases bit for bit, under both kernel bodies, in the lanes of
// the assembly body's first and second 8-output steps and in the Go tail:
// a window mixing −0 and +0 pools to +0, one holding a NaN pools to NaN,
// and ±Inf pool as the extremes they are.
func TestMaxPool2x2Bitwise(t *testing.T) {
	negZero, nan := float32(math.Copysign(0, -1)), float32(math.NaN())
	inf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	const outW = 19 // two 8-output steps and a 3-output tail
	windows := map[int][4]float32{
		0:  {negZero, negZero, 0, negZero},
		5:  {negZero, 0, negZero, negZero},
		6:  {negZero, negZero, negZero, negZero},
		9:  {1, 2, nan, 3},
		10: {-5, inf, 7, 0},
		11: {negInf, negInf, negInf, negInf},
		12: {negInf, negZero, negInf, negInf},
		13: {nan, negInf, inf, nan},
		17: {negInf, 2, negInf, nan},
		18: {0, negZero, negZero, negZero},
	}
	want := map[int]float32{0: 0, 5: 0, 6: negZero, 9: nan, 10: inf, 11: negInf, 12: negZero, 13: nan, 17: nan, 18: 0}
	forEachKernelBody(t, func(t *testing.T) {
		in := New(1, 2, 2*outW)
		for i := range in.Data() {
			in.Data()[i] = float32(i)
		}
		for ox, win := range windows {
			in.set(win[0], 0, 0, 2*ox)
			in.set(win[1], 0, 0, 2*ox+1)
			in.set(win[2], 0, 1, 2*ox)
			in.set(win[3], 0, 1, 2*ox+1)
		}
		out, err := MaxPool2D(in, PoolSpec{Kernel: 2, Stride: 2})
		if err != nil {
			t.Fatal(err)
		}
		for ox, v := range out.Data() {
			w, pinned := want[ox]
			if !pinned {
				w = float32(2*outW + 2*ox + 1) // the window's bottom-right element
			}
			if _, ok := sameFloats([]float32{v}, []float32{w}); !ok {
				t.Errorf("out[%d] = %v (%#08x), want %v (%#08x)", ox, v, math.Float32bits(v), w, math.Float32bits(w))
			}
		}
	})
}

// TestMaxPoolPropagatesNaN pins what every max-pooling path does with a
// non-finite activation: a window holding a NaN pools to NaN (the builtin
// max), on the tiled path, the clipped-window path and GridMaxPool alike,
// under both kernel bodies, and windows that do not hold it are unaffected.
func TestMaxPoolPropagatesNaN(t *testing.T) {
	forEachKernelBody(t, func(t *testing.T) {
		in := New(1, 4, 4)
		for i := range in.Data() {
			in.Data()[i] = float32(i)
		}
		in.set(float32(math.NaN()), 0, 1, 0) // the top-left 2×2 quadrant
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
			if v := out.at(0, 0, 0); !math.IsNaN(float64(v)) {
				t.Errorf("%s: window with a NaN pooled to %v, want NaN", name, v)
			}
			if v := out.at(0, 1, 1); v != 15 {
				t.Errorf("%s: NaN-free window pooled to %v, want 15", name, v)
			}
		}
	})
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
// (ReLU, the batch-norm affine, AddInPlace) on the pooled result silently corrupted
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

// batchNorm applies inference-time batch normalization to a CHW tensor in
// place as its own pass over the activation: the reference the fused
// convolution epilogue is held to.
func batchNorm(t *testing.T, x *Tensor, gamma, beta, mean, variance []float32, eps float32) {
	t.Helper()
	scale, shift, err := BatchNormAffine(gamma, beta, mean, variance, eps)
	if err != nil {
		t.Fatal(err)
	}
	hw := x.NumElements() / len(scale)
	for i := range x.Data() {
		x.Data()[i] = x.Data()[i]*scale[i/hw] + shift[i/hw]
	}
}

func TestBatchNorm(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	// gamma=2, beta=1, mean=2.5, var=1.25 -> normalized then scaled.
	batchNorm(t, a, []float32{2}, []float32{1}, []float32{2.5}, []float32{1.25}, 0)
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
	if _, _, err := BatchNormAffine([]float32{1, 2}, []float32{0}, []float32{0}, []float32{1}, 0); err == nil {
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
