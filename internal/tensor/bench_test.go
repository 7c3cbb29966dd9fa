package tensor

import (
	"math/rand"
	"testing"
)

func benchInput(c, h, w int) *Tensor {
	rng := rand.New(rand.NewSource(1))
	t := New(c, h, w)
	for i := range t.Data() {
		t.Data()[i] = rng.Float32()
	}
	return t
}

func BenchmarkConv2D3x3(b *testing.B) {
	in := benchInput(16, 32, 32)
	spec := Conv2DSpec{InChannels: 16, OutChannels: 32, Kernel: 3, Stride: 1, Pad: 1}
	w := make([]float32, spec.WeightCount())
	bias := make([]float32, spec.OutChannels)
	b.SetBytes(int64(in.NumElements() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2D(in, spec, w, bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConv2D1x1(b *testing.B) {
	in := benchInput(64, 16, 16)
	spec := Conv2DSpec{InChannels: 64, OutChannels: 64, Kernel: 1, Stride: 1}
	w := make([]float32, spec.WeightCount())
	bias := make([]float32, spec.OutChannels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2D(in, spec, w, bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxPool2D(b *testing.B) {
	in := benchInput(32, 32, 32)
	spec := PoolSpec{Kernel: 2, Stride: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := MaxPool2D(in, spec)
		if err != nil {
			b.Fatal(err)
		}
		Recycle(out) // as PartialInfer does once the next layer has read it
	}
}

// BenchmarkMaxPool2DBatch is tiny-vgg16's pool1 over one inference batch:
// 8 channels of 8 images of 64×64, 2/2, under each kernel body.
func BenchmarkMaxPool2DBatch(b *testing.B) {
	in := MustFromSlice(benchInput(8, 8*64, 64).Data(), 8, 8, 64, 64)
	spec := PoolSpec{Kernel: 2, Stride: 2}
	for _, body := range kernelBodies() {
		b.Run(body.name, func(b *testing.B) {
			defer body.use()()
			b.SetBytes(int64(in.NumElements() * 4))
			for i := 0; i < b.N; i++ {
				out, err := MaxPool2D(in, spec)
				if err != nil {
					b.Fatal(err)
				}
				Recycle(out)
			}
		})
	}
}

// BenchmarkMaxPool2DStem is tiny-resnet50's stem pool: 3×3, stride 2, pad 1
// over conv1's 16×32×32 output, so every window overlaps its neighbours and
// the first row and column of windows are clipped by the padding.
func BenchmarkMaxPool2DStem(b *testing.B) {
	in := benchInput(16, 32, 32)
	spec := PoolSpec{Kernel: 3, Stride: 2, Pad: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := MaxPool2D(in, spec)
		if err != nil {
			b.Fatal(err)
		}
		Recycle(out)
	}
}

func BenchmarkMatVec(b *testing.B) {
	const rows, cols = 256, 2048
	w := make([]float32, rows*cols)
	x := make([]float32, cols)
	bias := make([]float32, rows)
	b.SetBytes(int64(rows * cols * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatVec(w, rows, cols, x, bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	in := benchInput(3, 64, 64)
	b.SetBytes(in.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(Encode(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// rosterGEMMShapes are the (M, K, N) products the tiny roster's convolutions
// lower to, named for the layer they come from: what the GEMM driver is
// asked to run (before conv2DGEMM widens a ragged output grid), including its hard cases — N below the tile width (tiny-resnet50's
// last stage), K of one short block (27) and K spanning two (432).
var rosterGEMMShapes = []struct {
	name    string
	m, k, n int
}{
	{"vgg16.conv1_1", 8, 27, 4096},
	{"vgg16.conv1_2", 8, 72, 4096},
	{"vgg16.conv2_2", 16, 144, 1024},
	{"vgg16.conv3_3", 24, 216, 256},
	{"vgg16.conv4_3", 32, 288, 64},
	{"vgg16.conv5_3", 32, 288, 16},
	{"alexnet.conv1", 16, 75, 1024},
	{"alexnet.conv4", 48, 432, 64},
	{"resnet50.conv1", 16, 147, 1024},
	{"resnet50.conv2.expand", 32, 8, 256},
	{"resnet50.conv4.mid", 24, 216, 16},
	{"resnet50.conv5.mid", 32, 288, 4},
	{"resnet50.conv5.expand", 128, 32, 4},
	{"probe.1x1", 256, 256, 1024},
}

// BenchmarkSgemmRosterShapes reports the bare GEMM rate (one goroutine) over
// a dense B on every roster shape for both kernel bodies (the assembly rows
// are absent where the build or the CPU has no assembly body).
func BenchmarkSgemmRosterShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, body := range kernelBodies() {
		for _, s := range rosterGEMMShapes {
			a, bm, bias := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), randSlice(rng, s.m)
			g := denseGEMM(s.m, s.n, s.k, a, bm, bias, Epilogue{ReLU: true})
			b.Run(body.name+"/"+s.name, func(b *testing.B) {
				defer body.use()()
				for i := 0; i < b.N; i++ {
					g.run()
				}
				flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
