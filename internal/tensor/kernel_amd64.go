//go:build !purego

package tensor

// kernelAsm is the AVX2+FMA body of the tile contract (kernel_amd64.s).
//
//go:noescape
func kernelAsm(t *tile)

// maxPool2x2Asm is the AVX2 body of the 2×2 max-pool row-pair contract
// (kernel.go): the w/8 whole 8-output steps of each of rows output rows, row
// r at dst[r·w:] pooling src[2r·ld:] and src[(2r+1)·ld:]. It checks no
// bounds; maxPool2x2 has sliced both operands to what it reads. w ≥ 8.
//
//go:noescape
func maxPool2x2Asm(dst, src []float32, rows, w, ld int)

// cpuid and xgetbv execute the instructions of the same name (ECX = 0 for
// XGETBV): the in-repo replacement for x/sys/cpu's feature detection.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// asmSupported reports whether kernelAsm may run: the CPU has AVX2 and FMA,
// and the OS saves the YMM state across context switches.
func asmSupported() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XCR0: SSE and AVX state enabled
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
