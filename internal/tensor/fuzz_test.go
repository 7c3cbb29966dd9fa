package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDecode hardens the image-tensor codec: arbitrary blobs must decode
// cleanly or fail cleanly, and valid decodes must round-trip.
func FuzzDecode(f *testing.F) {
	for _, t := range []*Tensor{New(3, 4, 4), New(1), New(2, 3)} {
		blob, err := Encode(t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, blob []byte) {
		decoded, err := Decode(blob)
		if err != nil {
			return
		}
		re, err := Encode(decoded)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := Decode(re)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if !again.Shape().Equal(decoded.Shape()) {
			t.Fatalf("shape changed: %v vs %v", again.Shape(), decoded.Shape())
		}
	})
}

// FuzzConv2DGEMMParity drives randomized convolution geometries through the
// direct kernel and the GEMM path under every micro-kernel body, and requires
// elementwise agreement — the fuzzing arm of the parity suite in gemm_test.go.
func FuzzConv2DGEMMParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(9), uint8(9), uint8(3), uint8(1), uint8(1))
	f.Add(int64(2), uint8(1), uint8(1), uint8(5), uint8(13), uint8(7), uint8(2), uint8(3))
	f.Add(int64(3), uint8(7), uint8(5), uint8(16), uint8(8), uint8(5), uint8(2), uint8(0))
	// A 6-wide kernel over a 1×1 input padded by 3: some kernel columns never
	// meet the input at all (this one found an out-of-range slice in im2col).
	f.Add(int64(-144), uint8(14), uint8(92), uint8(96), uint8(0), uint8(12), uint8(45), uint8(87))
	f.Fuzz(func(t *testing.T, seed int64, inC, outC, h, w, k, stride, pad uint8) {
		spec := Conv2DSpec{
			InChannels:  1 + int(inC)%8,
			OutChannels: 1 + int(outC)%8,
			Kernel:      1 + int(k)%7,
			Stride:      1 + int(stride)%3,
			Pad:         int(pad) % 4,
		}
		ih, iw := 1+int(h)%24, 1+int(w)%24
		in := Shape{spec.InChannels, ih, iw}
		if _, err := spec.OutShape(in); err != nil {
			return // degenerate geometry
		}
		rng := rand.New(rand.NewSource(seed))
		input := randTensor(rng, spec.InChannels, ih, iw)
		weights := make([]float32, spec.WeightCount())
		for i := range weights {
			weights[i] = float32(rng.NormFloat64())
		}
		bias := make([]float32, spec.OutChannels)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		want, err := Conv2DDirect(input, spec, weights, bias)
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		for _, body := range kernelBodies() {
			restore := body.use()
			got, err := Conv2D(input, spec, weights, bias)
			restore()
			if err != nil {
				t.Fatalf("gemm: %v", err)
			}
			for i, v := range got.Data() {
				if math.Abs(float64(v-want.Data()[i])) > parityEps {
					t.Fatalf("divergence at %d: %s gemm %v vs direct %v (spec %+v, input %v)",
						i, body.name, v, want.Data()[i], spec, in)
				}
			}
		}
	})
}
