package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// FuzzDecode hardens the image codec, whose blobs arrive from disk through
// vista -data: arbitrary blobs must decode cleanly or fail cleanly, and a blob
// that decodes must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	for _, t := range []*Tensor{New(3, 4, 4), New(1), New(2, 3)} {
		f.Add(Encode(t))
	}
	f.Add([]byte{9, 9, 9})
	hostile := hostileBlobs()
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(hostile[name])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		decoded, err := Decode(blob)
		if err != nil {
			return // malformed input is fine, panics are not
		}
		if re := Encode(decoded); !bytes.Equal(re, blob) {
			t.Fatalf("re-encode of a decoded %v blob differs from it", decoded.Shape())
		}
	})
}

// FuzzConv2DGEMMParity drives randomized convolution geometries through the
// direct kernel and the GEMM path under every micro-kernel body, and requires
// elementwise agreement — the fuzzing arm of the parity suite in gemm_test.go.
// The GEMM runs once over a batch of 1 + batch%9 images, and each image of
// its output is held to that image convolved alone. An odd epi byte adds a
// random residual operand and a ReLU to the epilogue, held to the direct
// convolution followed by AddInPlace and ReLU: the kernel reads the residual
// unchecked too.
func FuzzConv2DGEMMParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(9), uint8(9), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(5), uint8(13), uint8(7), uint8(2), uint8(3), uint8(0), uint8(0))
	f.Add(int64(3), uint8(7), uint8(5), uint8(16), uint8(8), uint8(5), uint8(2), uint8(0), uint8(0), uint8(0))
	// A 6-wide kernel over a 1×1 input padded by 3: some kernel columns never
	// meet the input at all (this one found an out-of-range slice in the
	// column-matrix build that preceded the offset table).
	f.Add(int64(-144), uint8(14), uint8(92), uint8(96), uint8(0), uint8(12), uint8(45), uint8(87), uint8(0), uint8(0))
	// Input 5×6×3, k=4, stride 3, no padding: OutShape truncates (3−4)/3 to
	// 0, so the 4-wide kernel overhangs the 3-wide input and still yields one
	// output column, whose last tap must read zero. A padded slab sized by
	// the input rather than the receptive field read it from the next row.
	f.Add(int64(5), uint8(4), uint8(2), uint8(5), uint8(2), uint8(3), uint8(2), uint8(0), uint8(0), uint8(0))
	// A 1×1 stride-2 projection over 7×8×8 with a residual: the padded slab
	// holds the one phase plane of four the kernel reads.
	f.Add(int64(6), uint8(6), uint8(7), uint8(7), uint8(7), uint8(0), uint8(1), uint8(0), uint8(1), uint8(0))
	// A 1×1 over 2×2 with 7 output channels and a residual: the wide grid
	// and a ragged strip, where the driver stages the residual.
	f.Add(int64(7), uint8(4), uint8(6), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0))
	// The same over 8 images: 32 contiguous columns, read in place, panels
	// spanning images; and over 5, a wide grid across the whole batch.
	f.Add(int64(8), uint8(4), uint8(6), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), uint8(7))
	f.Add(int64(9), uint8(4), uint8(6), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), uint8(4))
	// A 3×3 pad-1 conv over 3 images of 4×4: one wide grid per image.
	f.Add(int64(10), uint8(3), uint8(3), uint8(3), uint8(3), uint8(2), uint8(0), uint8(1), uint8(1), uint8(2))
	// A 1×1 stride-2 projection over 6 images of 4×4: one phase plane per
	// image, contiguous across the batch.
	f.Add(int64(11), uint8(5), uint8(7), uint8(3), uint8(3), uint8(0), uint8(1), uint8(0), uint8(1), uint8(5))
	// A 3×3 pad-1 conv over 2 images of 16×16: direct, image by image.
	f.Add(int64(12), uint8(2), uint8(3), uint8(15), uint8(15), uint8(2), uint8(0), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, inC, outC, h, w, k, stride, pad, epi, batch uint8) {
		spec := Conv2DSpec{
			InChannels:  1 + int(inC)%8,
			OutChannels: 1 + int(outC)%8,
			Kernel:      1 + int(k)%7,
			Stride:      1 + int(stride)%3,
			Pad:         int(pad) % 4,
		}
		ih, iw, nb := 1+int(h)%24, 1+int(w)%24, 1+int(batch)%9
		in := Shape{spec.InChannels, ih, iw}
		if _, err := spec.OutShape(in); err != nil {
			return // degenerate geometry
		}
		rng := rand.New(rand.NewSource(seed))
		weights := make([]float32, spec.WeightCount())
		for i := range weights {
			weights[i] = float32(rng.NormFloat64())
		}
		bias := make([]float32, spec.OutChannels)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		input := NewBatch(in, nb)
		wants := make([]*Tensor, nb)
		var res *Tensor
		for img := range wants {
			x := randTensor(rng, in...)
			if err := SetItem(input, img, x); err != nil {
				t.Fatal(err)
			}
			want, err := Conv2DDirect(x, spec, weights, bias)
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			if epi%2 == 1 {
				r := randTensor(rng, want.Shape()...)
				if res == nil {
					res = NewBatch(want.Shape(), nb)
				}
				if err := SetItem(res, img, r); err != nil {
					t.Fatal(err)
				}
				if err := AddInPlace(want, r); err != nil {
					t.Fatal(err)
				}
				ReLU(want)
			}
			wants[img] = want
		}
		var ep Epilogue
		if res != nil {
			ep = Epilogue{Residual: res.Data(), ReLU: true}
		}
		for _, body := range kernelBodies() {
			restore := body.use()
			got, err := Conv2DFused(input, spec, weights, bias, ep)
			restore()
			if err != nil {
				t.Fatalf("gemm: %v", err)
			}
			for img, want := range wants {
				for i, v := range Item(got, img).Data() {
					if math.Abs(float64(v-want.Data()[i])) > parityEps {
						t.Fatalf("divergence at image %d of %d, element %d: %s gemm %v vs direct %v (spec %+v, input %v, residual %v)",
							img, nb, i, body.name, v, want.Data()[i], spec, in, ep.Residual != nil)
					}
				}
			}
		}
	})
}

// FuzzMaxPool2DParity drives random 2/2 pooling geometries over batches of 1
// to 9 images (a batch of one as a CHW image) through MaxPool2D under every
// kernel body, and holds each to the window-by-window reference bit for bit,
// except that any NaN matches any NaN. A share of up to 7/16 of the inputs,
// set by special, is NaN, ±0 or ±Inf, so windows mixing signed zeros and
// non-finite values land in the assembly body's lanes and in the Go tail.
func FuzzMaxPool2DParity(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(16), uint8(16), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(17), uint8(37), uint8(2), uint8(5))
	f.Add(int64(3), uint8(0), uint8(2), uint8(69), uint8(8), uint8(7))
	f.Add(int64(4), uint8(3), uint8(5), uint8(3), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, c, h, w, batch, special uint8) {
		ch, ih, iw, nb := 1+int(c)%4, 2+int(h)%20, 2+int(w)%72, 1+int(batch)%9
		shape := Shape{ch, nb, ih, iw}
		if nb == 1 {
			shape = Shape{ch, ih, iw}
		}
		rng := rand.New(rand.NewSource(seed))
		in := randTensor(rng, shape...)
		palette := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1))}
		for i := range in.Data() {
			if rng.Intn(16) < int(special)%8 {
				in.Data()[i] = palette[rng.Intn(len(palette))]
			}
		}
		spec := PoolSpec{Kernel: 2, Stride: 2}
		want, _ := poolWindows(in, spec)
		for _, body := range kernelBodies() {
			restore := body.use()
			got, err := MaxPool2D(in, spec)
			restore()
			if err != nil {
				t.Fatalf("%s: %v", body.name, err)
			}
			if i, ok := sameFloats(got.Data(), want); !ok {
				t.Fatalf("%s body, input %v: out[%d] = %v (%#08x), want %v (%#08x)", body.name, shape,
					i, got.Data()[i], math.Float32bits(got.Data()[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}
