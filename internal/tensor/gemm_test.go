package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sites := faultinject.ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// parityEps is the tolerated elementwise divergence between the GEMM and
// direct kernels; they sum identical terms in different orders.
const parityEps = 1e-4

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

// Conv2DDirect computes the convolution with the naive triple-loop kernel. It
// is the permanent reference implementation for the GEMM path: the parity
// suite asserts Conv2D against it across the geometry grid, and
// FuzzConv2DGEMMParity over random geometries. It takes one CHW image, not a
// batch.
func Conv2DDirect(in *Tensor, spec Conv2DSpec, weights, bias []float32) (*Tensor, error) {
	if len(in.Shape()) != 3 {
		return nil, fmt.Errorf("%w: direct conv2d expects CHW, got %v", ErrShape, in.Shape())
	}
	outShape, err := conv2DCheck(in, spec, weights, bias)
	if err != nil {
		return nil, err
	}
	inH, inW := in.Shape()[1], in.Shape()[2]
	outH, outW := outShape[1], outShape[2]
	out := New(outShape...)
	src := in.Data()
	dst := out.Data()
	k := spec.Kernel

	for oc := 0; oc < spec.OutChannels; oc++ {
		wBase := oc * spec.InChannels * k * k
		b := bias[oc]
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*spec.Stride - spec.Pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*spec.Stride - spec.Pad
				sum := b
				for ic := 0; ic < spec.InChannels; ic++ {
					sBase := ic * inH * inW
					fBase := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						rowBase := sBase + iy*inW
						fRow := fBase + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							sum += src[rowBase+ix] * weights[fRow+kx]
						}
					}
				}
				dst[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out, nil
}

func maxAbsDiff(a, b *Tensor) float64 {
	var m float64
	for i, v := range a.Data() {
		if d := math.Abs(float64(v - b.Data()[i])); d > m {
			m = d
		}
	}
	return m
}

// convParity asserts the GEMM kernel against the direct reference for one
// geometry and returns the GEMM output.
func convParity(t *testing.T, rng *rand.Rand, c, h, w int, spec Conv2DSpec) {
	t.Helper()
	in := randTensor(rng, c, h, w)
	weights := make([]float32, spec.WeightCount())
	for i := range weights {
		weights[i] = float32(rng.NormFloat64())
	}
	bias := make([]float32, spec.OutChannels)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	want, err := Conv2DDirect(in, spec, weights, bias)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	got, err := conv2DGEMM(in, spec, weights, bias, Epilogue{}, want.Shape())
	if err != nil {
		t.Fatalf("gemm: %v", err)
	}
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("shape mismatch: gemm %v vs direct %v", got.Shape(), want.Shape())
	}
	if d := maxAbsDiff(got, want); d > parityEps {
		t.Fatalf("max abs diff %g > %g for input (%d,%d,%d) spec %+v", d, parityEps, c, h, w, spec)
	}
}

// TestConv2DGEMMParity sweeps the GEMM kernel against the direct reference
// across kernel sizes, strides, pads, odd channel counts, and non-square
// inputs — the permanent contract of the escape hatch — once per micro-kernel
// body. The grid reaches every form of conv2DGEMM's one offset-table path:
//   - row-walk: outW a multiple of 16 (16×16 and 32×32 inputs, k/pad 3/1,
//     5/2, 7/3), C written straight into the output;
//   - wide + compact: any other outW (13×13, 13×19, 21×9), C written over
//     the padded-width grid and compacted;
//   - stride-2 phases: every stride-2 geometry, row-walk on the 32×32 input
//     with k/pad 3/1, wide elsewhere;
//   - 1×1 in place: k=1, stride 1, pad 0 over 16×16 or 32×32 (n a multiple
//     of 16), no padded slab;
//   - 1×1 with a ragged n: the same over 13×13, through a padded slab;
//   - a ragged m: 1 and 5 output channels;
//   - an overhanging kernel: 6×6 with k=7, stride 2, pad 0, where OutShape's
//     truncation yields one output whose last taps lie past the input.
func TestConv2DGEMMParity(t *testing.T) {
	forEachKernelBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		channels := []struct{ in, out int }{{1, 1}, {3, 5}, {7, 4}, {16, 32}}
		inputs := []struct{ h, w int }{{13, 13}, {16, 16}, {13, 19}, {21, 9}, {32, 32}, {6, 6}}
		for _, k := range []int{1, 3, 5, 7} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2, 3} {
					for _, ch := range channels {
						for _, hw := range inputs {
							spec := Conv2DSpec{
								InChannels:  ch.in,
								OutChannels: ch.out,
								Kernel:      k,
								Stride:      stride,
								Pad:         pad,
							}
							if _, err := spec.OutShape(Shape{ch.in, hw.h, hw.w}); err != nil {
								continue // degenerate geometry (kernel larger than padded input)
							}
							convParity(t, rng, ch.in, hw.h, hw.w, spec)
						}
					}
				}
			}
		}
	})
}

// TestConv2DFusedMatchesSeparatePasses pins the fused epilogue to the passes
// it replaces: Conv2D, then a batch-norm pass, then ReLU, each over the whole
// activation. Bias-only and ReLU-only epilogues must be bit-identical to the
// passes (same operations on the same values); the affine is allowed the
// rounding of one fused multiply-add. A residual epilogue is held bit for bit
// to the convolution with the same affine, then AddInPlace, then ReLU: the
// add and the max are the same float32 operations wherever they run. Its
// cases reach each place the driver puts the residual — straight through on
// the direct path, staged into a ragged strip (7 output channels), into the
// wide grid (a 1×1 over 2×2, N = 4), and added once, on the last k block, of
// a reduction longer than kcBlock (a 1×1 over 300 channels).
func TestConv2DFusedMatchesSeparatePasses(t *testing.T) {
	forEachKernelBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, spec := range []Conv2DSpec{
			{InChannels: 3, OutChannels: 8, Kernel: 3, Stride: 1, Pad: 1},
			{InChannels: 5, OutChannels: 6, Kernel: 1, Stride: 1},
			{InChannels: 4, OutChannels: 7, Kernel: 3, Stride: 2, Pad: 1},
		} {
			in := randTensor(rng, spec.InChannels, 10, 10)
			w, bias := randSlice(rng, spec.WeightCount()), randSlice(rng, spec.OutChannels)
			oc := spec.OutChannels
			gamma, beta, mean := randSlice(rng, oc), randSlice(rng, oc), randSlice(rng, oc)
			variance := randSlice(rng, oc)
			for i, v := range variance {
				variance[i] = v*v + 0.1
			}
			scale, shift, err := BatchNormAffine(gamma, beta, mean, variance, 1e-5)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				bn, relu bool
				eps      float64
			}{{false, false, 0}, {false, true, 0}, {true, false, 1e-5}, {true, true, 1e-5}} {
				want, err := Conv2D(in, spec, w, bias)
				if err != nil {
					t.Fatal(err)
				}
				ep := Epilogue{ReLU: c.relu}
				if c.bn {
					batchNorm(t, want, gamma, beta, mean, variance, 1e-5)
					ep.Scale, ep.Shift = scale, shift
				}
				if c.relu {
					ReLU(want)
				}
				got, err := Conv2DFused(in, spec, w, bias, ep)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(got, want); d > c.eps {
					t.Errorf("spec %+v bn=%v relu=%v: fused differs from separate passes by %g (allowed %g)", spec, c.bn, c.relu, d, c.eps)
				}
			}
		}

		for _, c := range []struct {
			name string
			h, w int
			spec Conv2DSpec
		}{
			{"direct 3x3", 16, 16, Conv2DSpec{InChannels: 5, OutChannels: 8, Kernel: 3, Stride: 1, Pad: 1}},
			{"ragged m", 8, 8, Conv2DSpec{InChannels: 6, OutChannels: 7, Kernel: 1, Stride: 1}},
			{"wide grid", 2, 2, Conv2DSpec{InChannels: 12, OutChannels: 16, Kernel: 1, Stride: 1}},
			{"wide grid, ragged m", 2, 2, Conv2DSpec{InChannels: 12, OutChannels: 7, Kernel: 1, Stride: 1}},
			{"k > kcBlock", 4, 4, Conv2DSpec{InChannels: 300, OutChannels: 8, Kernel: 1, Stride: 1}},
		} {
			in := randTensor(rng, c.spec.InChannels, c.h, c.w)
			w, bias := randSlice(rng, c.spec.WeightCount()), randSlice(rng, c.spec.OutChannels)
			scale, shift := randSlice(rng, c.spec.OutChannels), randSlice(rng, c.spec.OutChannels)
			for _, bn := range []bool{false, true} {
				ep := Epilogue{}
				if bn {
					ep.Scale, ep.Shift = scale, shift
				}
				want, err := Conv2DFused(in, c.spec, w, bias, ep)
				if err != nil {
					t.Fatal(err)
				}
				res := randTensor(rng, want.Shape()...)
				if err := AddInPlace(want, res); err != nil {
					t.Fatal(err)
				}
				ReLU(want)
				ep.Residual, ep.ReLU = res.Data(), true
				got, err := Conv2DFused(in, c.spec, w, bias, ep)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
						t.Fatalf("%s bn=%v: residual epilogue [%d] = %v, separate passes %v", c.name, bn, i, v, want.Data()[i])
					}
				}
			}
		}
	})
	bad := Epilogue{Scale: make([]float32, 3), Shift: make([]float32, 2)}
	spec := Conv2DSpec{InChannels: 1, OutChannels: 3, Kernel: 1, Stride: 1}
	if _, err := Conv2DFused(New(1, 2, 2), spec, make([]float32, 3), make([]float32, 3), bad); err == nil {
		t.Error("mismatched epilogue vectors accepted")
	}
	// The assembly body reads the residual unchecked: a short one is an error.
	for _, n := range []int{0, 11, 13} {
		short := Epilogue{Residual: make([]float32, n)}
		if _, err := Conv2DFused(New(1, 2, 2), spec, make([]float32, 3), make([]float32, 3), short); !errors.Is(err, ErrShape) {
			t.Errorf("residual of %d floats for a 3×2×2 output: err %v, want ErrShape", n, err)
		}
	}
}

// TestConv2DGEMMParallelShared runs many concurrent convolutions over one
// shared input and weight set. Under -race this asserts the slab arena, the
// edge panels and the padded slabs are goroutine-clean; the output check
// asserts results are not cross-contaminated between concurrent calls.
func TestConv2DGEMMParallelShared(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randTensor(rng, 8, 24, 24)
	spec := Conv2DSpec{InChannels: 8, OutChannels: 12, Kernel: 3, Stride: 1, Pad: 1}
	weights := make([]float32, spec.WeightCount())
	for i := range weights {
		weights[i] = float32(rng.NormFloat64())
	}
	bias := make([]float32, spec.OutChannels)
	want, err := Conv2DDirect(in, spec, weights, bias)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := Conv2D(in, spec, weights, bias)
				if err != nil {
					errs[g] = err
					return
				}
				if d := maxAbsDiff(got, want); d > parityEps {
					errs[g] = fmt.Errorf("goroutine %d iter %d: max abs diff %g", g, iter, d)
					return
				}
				Recycle(got)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConvPadFaultSite asserts the padded-slab failpoint surfaces a typed
// error from Conv2D rather than panicking mid-kernel.
func TestConvPadFaultSite(t *testing.T) {
	faultinject.Arm(FaultConvPad, faultinject.FailAlways())
	defer faultinject.Disarm(FaultConvPad)
	in := New(2, 8, 8)
	spec := Conv2DSpec{InChannels: 2, OutChannels: 2, Kernel: 3, Stride: 1, Pad: 1}
	_, err := Conv2D(in, spec, make([]float32, spec.WeightCount()), make([]float32, 2))
	if err == nil {
		t.Fatal("expected injected fault")
	}
	if _, ok := faultinject.AsFault(err); !ok {
		t.Fatalf("error %v is not a faultinject.Error", err)
	}
	// A 1×1 conv over 64 pixels reads its input in place and acquires no
	// padded slab, so the site must not fire there.
	spec1 := Conv2DSpec{InChannels: 2, OutChannels: 2, Kernel: 1, Stride: 1}
	if _, err := Conv2D(in, spec1, make([]float32, spec1.WeightCount()), make([]float32, 2)); err != nil {
		t.Fatalf("in-place 1x1 conv hit the padded-slab site: %v", err)
	}
}

// TestRecycleInvalidates locks in the use-after-recycle guard: a recycled
// tensor's storage is gone and reuse panics instead of reading pool memory.
func TestRecycleInvalidates(t *testing.T) {
	x := New(4, 4)
	Recycle(x)
	if x.Data() != nil {
		t.Fatal("recycled tensor still exposes storage")
	}
	Recycle(x) // second recycle is a no-op
	Recycle(nil)
}

func TestSlabClassBounds(t *testing.T) {
	if c := slabClass(0); c != minSlabClass {
		t.Fatalf("slabClass(0) = %d", c)
	}
	if c := slabClass(1 << 30); c != -1 {
		t.Fatalf("slabClass(1<<30) = %d, want -1 (too large to pool)", c)
	}
	for _, n := range []int{1, 255, 256, 257, 4096, 1 << maxSlabClass} {
		c := slabClass(n)
		if c < 0 {
			t.Fatalf("slabClass(%d) refused a poolable size", n)
		}
		if 1<<c < n {
			t.Fatalf("slabClass(%d) = %d: class smaller than request", n, c)
		}
	}
	s := getSlab(300)
	if len(s) != 300 {
		t.Fatalf("getSlab(300) len %d", len(s))
	}
	putSlab(s)
}

func BenchmarkConv2DDirect3x3(b *testing.B) {
	in := benchInput(16, 32, 32)
	spec := Conv2DSpec{InChannels: 16, OutChannels: 32, Kernel: 3, Stride: 1, Pad: 1}
	w := make([]float32, spec.WeightCount())
	bias := make([]float32, spec.OutChannels)
	b.SetBytes(int64(in.NumElements() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2DDirect(in, spec, w, bias); err != nil {
			b.Fatal(err)
		}
	}
}
