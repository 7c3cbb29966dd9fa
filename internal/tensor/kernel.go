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

// The 2×2 max-pool row-pair contract, the second routine behind useAsm:
//
//	dst[i] = max(a[2i], a[2i+1], b[2i], b[2i+1])   for every i < w
//
// with a and b the two input rows of one output row of w outputs, and max
// Go's builtin: a NaN operand gives NaN and +0 beats −0. max is exact, so
// unlike the GEMM's two bodies these two agree bit for bit (up to which NaN
// a NaN window yields). maxPool2x2 applies it to rows output rows at once —
// output row r, at dst[r·w:], pools input rows 2r and 2r+1 of src, ld floats
// apart (rows ≥ 1) — because a call per row cost more than the row's
// arithmetic on every tiny-vgg16 pool. The assembly body (maxPool2x2Asm, kernel_amd64.s)
// takes each row's whole steps of 8 outputs; the Go body takes the rest of
// each row (all of it below 8 outputs) and every output of a build without
// the assembly.
func maxPool2x2(dst, src []float32, rows, w, ld int) {
	dst, src = dst[:rows*w], src[:(2*rows-1)*ld+2*w]
	done := 0
	if useAsm && w >= 8 {
		maxPool2x2Asm(dst, src, rows, w, ld)
		done = w &^ 7
	}
	for r := 0; r < rows && done < w; r++ {
		a := src[2*r*ld:]
		maxPool2x2Go(dst[r*w+done:(r+1)*w], a[2*done:], a[ld+2*done:])
	}
}

// maxPool2x2Go is the portable body of the row-pair contract, over one row.
func maxPool2x2Go(dst, a, b []float32) {
	a, b = a[:2*len(dst)], b[:2*len(dst)]
	for i := range dst {
		a2, b2 := a[2*i:2*i+2], b[2*i:2*i+2]
		dst[i] = max(a2[0], a2[1], b2[0], b2[1])
	}
}
