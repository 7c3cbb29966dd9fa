package tensor

// This file is the GEMM micro-kernel contract and its pure-Go body. The
// driver in gemm.go cuts C into mr×nr tiles and calls kernel once per tile
// and k block; everything arithmetic happens here, in one of two bodies of
// the same contract:
//
//   - kernelAsm (kernel_amd64.s): AVX2+FMA, the eight 8-lane accumulators of
//     a 4×16 tile held in YMM registers from the first multiply to the single
//     store. Used when the CPU and OS support it (kernel_amd64.go).
//   - kernelGo (below): the same tile in portable Go. It serves every other
//     GOARCH, x86 without AVX2/FMA, and builds with -tags purego, and it is
//     the reference the assembly is tested against.
//
// The two bodies agree to the parity tolerance, not bit for bit: the assembly
// rounds once per fused multiply-add, the Go body (on amd64) twice.

// The register tile. 4×16 float32 is eight YMM accumulators, which is what it
// takes to cover the FMA latency on two ports, and leaves registers for the
// two B vectors and the broadcast A scalars. Every roster layer has M a
// multiple of 4 and, except the last tiny-resnet50 stage, N a multiple of 16.
const (
	mr = 4
	nr = 16
)

// tile is one micro-kernel call:
//
//	C[mr×nr] = epilogue(init + A[mr×k]·B[k×nr])
//
// init is bias[i] across row i, or, when bias is nil, what C already holds —
// the continuation of a reduction the driver split into k blocks. The
// epilogue is acc·scale[i]+shift[i] when scale is non-nil, then acc + R when
// res is non-nil (R is mr×nr, addressed like C: row i at res[i·ldr:]), then
// max(acc, 0) when relu is set; the driver asks for it on a reduction's last
// block only. a, c and res are addressed as base + row·stride and must hold
// mr full rows; B
// row p is the nr floats at b[boff[p]:], so one table serves a dense matrix
// (boff[p] = p·ldb) and a convolution's padded input read in place
// (gemm.go). The driver pads a ragged last strip and never asks for a ragged
// panel, so the bodies have no tail loops. bias, scale and shift hold mr
// values. The assembly body checks no bounds: the driver proves every read
// is inside b before the first call.
type tile struct {
	k     int
	a     []float32
	lda   int
	b     []float32
	boff  []int32
	c     []float32
	ldc   int
	bias  []float32
	scale []float32
	shift []float32
	res   []float32
	ldr   int
	relu  bool
}

// useAsm selects the assembly body. It is decided once, from the CPU, when
// the package initializes; tests flip it to run one suite over both bodies.
var useAsm = asmSupported()

// KernelName names the micro-kernel body serving this process: "avx2-fma" or
// "purego". Operators comparing two boxes' throughput need to know which.
func KernelName() string {
	if useAsm {
		return "avx2-fma"
	}
	return "purego"
}

func kernel(t *tile) {
	if useAsm {
		kernelAsm(t)
		return
	}
	kernelGo(t)
}

// kernelGo is the portable body of the tile contract.
func kernelGo(t *tile) {
	var acc [mr][nr]float32
	for i := range acc {
		if t.bias != nil {
			v := t.bias[i]
			for j := range acc[i] {
				acc[i][j] = v
			}
		} else {
			copy(acc[i][:], t.c[i*t.ldc:i*t.ldc+nr])
		}
	}
	a0, a1, a2, a3 := t.a[:t.k], t.a[t.lda:t.lda+t.k], t.a[2*t.lda:2*t.lda+t.k], t.a[3*t.lda:3*t.lda+t.k]
	for p, v0 := range a0 {
		v1, v2, v3 := a1[p], a2[p], a3[p]
		brow := (*[nr]float32)(t.b[t.boff[p]:])
		for j, bv := range brow {
			acc[0][j] += v0 * bv
			acc[1][j] += v1 * bv
			acc[2][j] += v2 * bv
			acc[3][j] += v3 * bv
		}
	}
	for i := range acc {
		row := &acc[i]
		if t.scale != nil {
			sc, sh := t.scale[i], t.shift[i]
			for j := range row {
				row[j] = row[j]*sc + sh
			}
		}
		if t.res != nil {
			for j, r := range t.res[i*t.ldr : i*t.ldr+nr] {
				row[j] += r
			}
		}
		if t.relu {
			for j, v := range row {
				if v < 0 {
					row[j] = 0
				}
			}
		}
		copy(t.c[i*t.ldc:i*t.ldc+nr], row[:])
	}
}
