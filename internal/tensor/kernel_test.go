package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// kernelBody is one body of the micro-kernel contract.
type kernelBody struct {
	name string
	asm  bool
}

// use switches the package to the body and returns the function that
// switches back. Nothing outside tests switches bodies.
func (b kernelBody) use() (restore func()) {
	old := useAsm
	useAsm = b.asm
	return func() { useAsm = old }
}

// kernelBodies lists the bodies this build and CPU can run: always the
// pure-Go one, and the assembly one where the package selected it at init.
// Tests that pin the kernel's arithmetic range over it, so one suite gates
// both.
func kernelBodies() []kernelBody {
	bodies := []kernelBody{{"purego", false}}
	if asmSupported() {
		bodies = append(bodies, kernelBody{"avx2-fma", true})
	}
	return bodies
}

// forEachKernelBody runs fn as a subtest under every available body.
func forEachKernelBody(t *testing.T, fn func(t *testing.T)) {
	for _, body := range kernelBodies() {
		t.Run(body.name, func(t *testing.T) {
			defer body.use()()
			fn(t)
		})
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// gemmReference computes epilogue(A·B + bias) in float64, term by term.
func gemmReference(m, n, k int, a, b, bias []float32, ep Epilogue) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := float64(bias[i])
			for p := 0; p < k; p++ {
				sum += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			if ep.Scale != nil {
				sum = sum*float64(ep.Scale[i]) + float64(ep.Shift[i])
			}
			if ep.ReLU && sum < 0 {
				sum = 0
			}
			c[i*n+j] = sum
		}
	}
	return c
}

// denseGEMM returns the driver set up over a dense row-major B (k×n) the way
// conv2DGEMM sets up a ragged output grid: B's rows padded with zeros to a
// multiple of nr columns and addressed through boff[p] = p·ldb, and a
// scratch C as wide. C starts as NaN, so a tile that accumulated into it
// instead of starting from bias would show.
func denseGEMM(m, n, k int, a, b, bias []float32, ep Epilogue) *gemm {
	ldb := (n + nr - 1) / nr * nr
	g := &gemm{m: m, n: ldb, k: k, a: a, bias: bias, ep: ep, imgCols: ldb, rowW: ldb,
		b: make([]float32, k*ldb), boff: make([]int32, k), c: make([]float32, m*ldb)}
	for p := 0; p < k; p++ {
		copy(g.b[p*ldb:], b[p*n:(p+1)*n])
		g.boff[p] = int32(p * ldb)
	}
	for i := range g.c {
		g.c[i] = float32(math.NaN())
	}
	return g
}

// TestSgemmBodiesAgree runs both kernel bodies over the roster's real GEMM
// shapes and over every edge of the driver — ragged last strip (m % mr),
// ragged and sub-tile n (n % nr, n < nr, padded as conv2DGEMM pads its wide
// grid), k shorter than one block, exactly one block, one past, and several
// — with and without the fused affine and ReLU. Each body must match the
// float64 reference, and therefore the other body, within a tolerance scaled
// to the length of the sum.
func TestSgemmBodiesAgree(t *testing.T) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, s := range rosterGEMMShapes {
		if s.m*s.k*s.n <= 1<<21 { // the probe shape is benchmark-only
			shapes = append(shapes, shape{s.m, s.k, s.n})
		}
	}
	for _, m := range []int{1, 3, 4, 5, 9} {
		for _, n := range []int{1, 4, 15, 16, 17, 40} {
			for _, k := range []int{1, 7, kcBlock - 1, kcBlock, kcBlock + 1, 2*kcBlock + 37} {
				shapes = append(shapes, shape{m, k, n})
			}
		}
	}
	rng := rand.New(rand.NewSource(19))
	for _, s := range shapes {
		a, b, bias := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), randSlice(rng, s.m)
		for _, ep := range []Epilogue{
			{},
			{ReLU: true},
			{Scale: randSlice(rng, s.m), Shift: randSlice(rng, s.m)},
			{Scale: randSlice(rng, s.m), Shift: randSlice(rng, s.m), ReLU: true},
		} {
			want := gemmReference(s.m, s.n, s.k, a, b, bias, ep)
			// Each of k float32 products and sums rounds at 2^-24 of a
			// running value of magnitude ~sqrt(k); the affine scales that.
			tol := 1e-6 * float64(s.k+8)
			if ep.Scale != nil {
				tol *= 4
			}
			for _, body := range kernelBodies() {
				restore := body.use()
				g := denseGEMM(s.m, s.n, s.k, a, b, bias, ep)
				g.run()
				restore()
				for i, w := range want {
					v := g.c[i/s.n*g.n+i%s.n]
					if d := math.Abs(float64(v) - w); d > tol*(1+math.Abs(w)) {
						t.Fatalf("%s m=%d k=%d n=%d ep=%+v: c[%d] = %v, reference %v (|diff| %g)",
							body.name, s.m, s.k, s.n, ep.ReLU, i, v, w, d)
					}
				}
			}
		}
	}
}

// TestKernelNonFinite is the regression test for the retired axpy1, which
// skipped zero weights: a zero weight times an Inf activation was 0 in a
// one-row tail tile but NaN in a four-row tile, so one convolution
// propagated non-finite values differently by output channel index mod 4.
// With M = 5 the last channel is alone in its strip; it must agree with the
// four before it and with the direct kernel. The bodies must also agree on
// what ReLU does to a NaN (keeps it) — they implement `if v < 0 { v = 0 }`.
// A residual holding NaN, −0 and +0 must come out of the fused add and ReLU
// exactly as out of AddInPlace then ReLU: the NaN kept, and −0 + −0 staying
// −0 through the ReLU.
func TestKernelNonFinite(t *testing.T) {
	forEachKernelBody(t, func(t *testing.T) {
		in := New(2, 3, 3)
		for i := range in.Data() {
			in.Data()[i] = 1
		}
		in.set(float32(math.Inf(1)), 1, 1, 1) // channel 1, centre pixel
		spec := Conv2DSpec{InChannels: 2, OutChannels: 5, Kernel: 1, Stride: 1}
		weights := make([]float32, spec.WeightCount())
		for oc := 0; oc < spec.OutChannels; oc++ {
			weights[oc*2] = 1 // channel 0 passes through; channel 1 (the Inf) has weight 0
		}
		bias := make([]float32, spec.OutChannels)
		want, err := Conv2DDirect(in, spec, weights, bias)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range []Epilogue{{}, {ReLU: true}} {
			got, err := Conv2DFused(in, spec, weights, bias, ep)
			if err != nil {
				t.Fatal(err)
			}
			for oc := 0; oc < spec.OutChannels; oc++ {
				g, w := got.at(oc, 1, 1), want.at(oc, 1, 1)
				if !math.IsNaN(float64(w)) {
					t.Fatalf("direct kernel: 0·Inf = %v, want NaN", w)
				}
				if !math.IsNaN(float64(g)) {
					t.Errorf("relu=%v: output channel %d = %v where channels 0-3 and the direct kernel give NaN", ep.ReLU, oc, g)
				}
				if g, w := got.at(oc, 0, 0), want.at(oc, 0, 0); g != w {
					t.Errorf("relu=%v: finite pixel of channel %d = %v, direct %v", ep.ReLU, oc, g, w)
				}
			}
		}

		// Weights −1 on channel 0 and −0 on channel 1, bias −0: the
		// accumulator is −0 + (−x0) + (−0·x1), so −1 at pixel (0, 0), where
		// x0 = 1, and −0 at (0, 1), where x0 = 0.
		zin := in.Clone()
		zin.set(1, 0, 0, 0)
		zin.set(0, 0, 0, 1)
		neg := make([]float32, spec.WeightCount())
		negZero := float32(math.Copysign(0, -1))
		zbias := make([]float32, spec.OutChannels)
		for oc := 0; oc < spec.OutChannels; oc++ {
			neg[oc*2], neg[oc*2+1] = -1, negZero
			zbias[oc] = negZero
		}
		res := New(spec.OutChannels, 3, 3)
		for oc := 0; oc < spec.OutChannels; oc++ {
			res.set(float32(math.NaN()), oc, 2, 2)
			res.set(negZero, oc, 0, 1) // acc −0 there: −0 + −0 = −0
			res.set(negZero, oc, 0, 2) // acc −1 there: −1 + −0 = −1
			res.set(3, oc, 0, 0)       // −1 + 3 = 2
		}
		want, err = Conv2D(zin, spec, neg, zbias)
		if err != nil {
			t.Fatal(err)
		}
		if err := AddInPlace(want, res); err != nil {
			t.Fatal(err)
		}
		ReLU(want)
		got, err := Conv2DFused(zin, spec, neg, zbias, Epilogue{Residual: res.Data(), ReLU: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Errorf("residual: [%d] = %v (%#x), separate passes %v (%#x)", i, v, math.Float32bits(v),
					want.Data()[i], math.Float32bits(want.Data()[i]))
			}
		}
		for oc := 0; oc < spec.OutChannels; oc++ {
			if v := got.at(oc, 2, 2); !math.IsNaN(float64(v)) {
				t.Errorf("residual: NaN in R gave %v in channel %d", v, oc)
			}
			if v := got.at(oc, 0, 1); v != 0 || !math.Signbit(float64(v)) {
				t.Errorf("residual: −0 + −0 through the ReLU gave %v in channel %d, want −0", v, oc)
			}
			if v := got.at(oc, 0, 0); v != 2 {
				t.Errorf("residual: channel %d pixel (0,0) = %v, want 2", oc, v)
			}
		}
	})
}
