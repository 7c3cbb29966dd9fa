//go:build !purego

#include "textflag.h"
#include "go_asm.h"

// The AVX2+FMA body of the tile contract in kernel.go, the AVX2 body of its
// 2×2 max-pool row-pair contract, and the two instruction stubs
// kernel_amd64.go needs to decide whether they may run.
//
// Register plan for kernelAsm:
//   Y0..Y7   accumulators: row i of the 4×16 tile is Y(2i) | Y(2i+1)
//   Y8, Y9   the current B row (16 floats)
//   Y10..13  one A scalar each, broadcast to 8 lanes
//   SI       &A[0][p]; R8 = lda in bytes; R11 = &A[3][p]
//   BX       &b[0], the panel base; R9 = &boff[p]
//   AX, R13  boff[p] of the current step, sign-extended
//   DX       &C[0][0]; R10 = ldc in bytes; R12 = &C[3][0]
//   CX       k steps left
// The epilogue reuses SI, R8 and R11 for the residual tile R.

// One reduction step: A column at byte offset aoff, B row halves at b0, b1.
// B row p is read at b[boff[p]:], one MOVLQSX ahead of its two loads.
#define KSTEP(aoff, b0, b1) \
	VMOVUPS      b0, Y8;             \
	VMOVUPS      b1, Y9;             \
	VBROADCASTSS aoff(SI), Y10;       \
	VBROADCASTSS aoff(SI)(R8*1), Y11; \
	VBROADCASTSS aoff(SI)(R8*2), Y12; \
	VBROADCASTSS aoff(R11), Y13;      \
	VFMADD231PS  Y8, Y10, Y0;         \
	VFMADD231PS  Y9, Y10, Y1;         \
	VFMADD231PS  Y8, Y11, Y2;         \
	VFMADD231PS  Y9, Y11, Y3;         \
	VFMADD231PS  Y8, Y12, Y4;         \
	VFMADD231PS  Y9, Y12, Y5;         \
	VFMADD231PS  Y8, Y13, Y6;         \
	VFMADD231PS  Y9, Y13, Y7

// func kernelAsm(t *tile)
TEXT ·kernelAsm(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), DI
	MOVQ tile_k(DI), CX
	MOVQ tile_a(DI), SI
	MOVQ tile_lda(DI), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11
	ADDQ SI, R11
	MOVQ tile_b(DI), BX
	MOVQ tile_boff(DI), R9
	MOVQ tile_c(DI), DX
	MOVQ tile_ldc(DI), R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R12
	ADDQ DX, R12

	// Accumulators start at bias[i], or at C when this continues a reduction.
	MOVQ  tile_bias(DI), AX
	TESTQ AX, AX
	JZ    fromc
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y2
	VBROADCASTSS 8(AX), Y4
	VBROADCASTSS 12(AX), Y6
	VMOVAPS Y0, Y1
	VMOVAPS Y2, Y3
	VMOVAPS Y4, Y5
	VMOVAPS Y6, Y7
	JMP   reduce

fromc:
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (DX)(R10*1), Y2
	VMOVUPS 32(DX)(R10*1), Y3
	VMOVUPS (DX)(R10*2), Y4
	VMOVUPS 32(DX)(R10*2), Y5
	VMOVUPS (R12), Y6
	VMOVUPS 32(R12), Y7

reduce:
	CMPQ CX, $4
	JLT  tail

by4:
	MOVLQSX 0(R9), AX
	KSTEP(0, (BX)(AX*4), 32(BX)(AX*4))
	MOVLQSX 4(R9), R13
	KSTEP(4, (BX)(R13*4), 32(BX)(R13*4))
	MOVLQSX 8(R9), AX
	KSTEP(8, (BX)(AX*4), 32(BX)(AX*4))
	MOVLQSX 12(R9), R13
	KSTEP(12, (BX)(R13*4), 32(BX)(R13*4))
	ADDQ $16, SI
	ADDQ $16, R11
	ADDQ $16, R9
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  by4

tail:
	TESTQ CX, CX
	JZ    epilogue

by1:
	MOVLQSX (R9), AX
	KSTEP(0, (BX)(AX*4), 32(BX)(AX*4))
	ADDQ $4, R9
	ADDQ $4, SI
	ADDQ $4, R11
	DECQ CX
	JNZ  by1

epilogue:
	MOVQ  tile_scale(DI), AX
	TESTQ AX, AX
	JZ    residual
	MOVQ  tile_shift(DI), R13
	VBROADCASTSS 0(AX), Y8
	VBROADCASTSS 0(R13), Y9
	VFMADD213PS  Y9, Y8, Y0
	VFMADD213PS  Y9, Y8, Y1
	VBROADCASTSS 4(AX), Y8
	VBROADCASTSS 4(R13), Y9
	VFMADD213PS  Y9, Y8, Y2
	VFMADD213PS  Y9, Y8, Y3
	VBROADCASTSS 8(AX), Y8
	VBROADCASTSS 8(R13), Y9
	VFMADD213PS  Y9, Y8, Y4
	VFMADD213PS  Y9, Y8, Y5
	VBROADCASTSS 12(AX), Y8
	VBROADCASTSS 12(R13), Y9
	VFMADD213PS  Y9, Y8, Y6
	VFMADD213PS  Y9, Y8, Y7

residual:
	// acc + R, R addressed like C: SI = &R[0][0], R8 = ldr in bytes,
	// R11 = &R[3][0]. The accumulator is the first source, as in `acc += r`.
	MOVQ  tile_res(DI), SI
	TESTQ SI, SI
	JZ    relu
	MOVQ  tile_ldr(DI), R8
	SHLQ  $2, R8
	LEAQ  (R8)(R8*2), R11
	ADDQ  SI, R11
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	VADDPS (SI)(R8*1), Y2, Y2
	VADDPS 32(SI)(R8*1), Y3, Y3
	VADDPS (SI)(R8*2), Y4, Y4
	VADDPS 32(SI)(R8*2), Y5, Y5
	VADDPS (R11), Y6, Y6
	VADDPS 32(R11), Y7, Y7

relu:
	MOVBLZX tile_relu(DI), AX
	TESTL   AX, AX
	JZ      store
	// max with the accumulator as the second source: a NaN or -0 accumulator
	// comes back unchanged, as it does through `if v < 0 { v = 0 }`.
	VXORPS Y8, Y8, Y8
	VMAXPS Y0, Y8, Y0
	VMAXPS Y1, Y8, Y1
	VMAXPS Y2, Y8, Y2
	VMAXPS Y3, Y8, Y3
	VMAXPS Y4, Y8, Y4
	VMAXPS Y5, Y8, Y5
	VMAXPS Y6, Y8, Y6
	VMAXPS Y7, Y8, Y7

store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R10*1)
	VMOVUPS Y3, 32(DX)(R10*1)
	VMOVUPS Y4, (DX)(R10*2)
	VMOVUPS Y5, 32(DX)(R10*2)
	VMOVUPS Y6, (R12)
	VMOVUPS Y7, 32(R12)
	VZEROUPPER
	RET

// The pool works on negated operands. VMINPS returns its second source when
// either operand is NaN or both are zeros, so the OR of the two operand
// orders is NaN when either is, −0 when either is −0, and the minimum
// otherwise: on negated operands that is −max with Go's max semantics (NaN
// propagates, +0 beats −0). Rows are negated once on load, every max of the
// step is one POOLMIN, and the result is negated once before the store.
#define POOLMIN(x, y, dst, tmp) \
	VMINPS y, x, dst;  \
	VMINPS x, y, tmp;  \
	VORPS  tmp, dst, dst

// func maxPool2x2Asm(dst, src []float32, rows, w, ld int)
//
// Register plan: SI = &a of the current row pair, R11 = ld in bytes (b is
// a + R11), R12 = 2·ld in bytes (the next pair), DI = &dst of the current
// row, R13 = w in bytes, R10 = steps per row, BX = rows left; within a row
// AX = &a[2i], DX = &b[2i], R8 = &dst[i], CX = steps left; Y15 = the sign
// mask. One step reads 16 floats of each row and writes 8 outputs: the two
// rows fold into Y4 | Y5, VSHUFPS splits those 16 columns into even and odd
// ones (within each 128-bit lane, so the pairs' maxima come out as
// o0 o1 o4 o5 | o2 o3 o6 o7), and VPERMPD 0xD8 swaps the middle 64-bit
// quarters back into order.
TEXT ·maxPool2x2Asm(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ rows+48(FP), BX
	MOVQ w+56(FP), R13
	MOVQ ld+64(FP), R11
	MOVQ R13, R10
	SHRQ $3, R10
	JZ   pooldone
	TESTQ BX, BX
	JZ   pooldone
	SHLQ $2, R13
	SHLQ $2, R11
	LEAQ (R11)(R11*1), R12
	VPCMPEQD Y15, Y15, Y15
	VPSLLD   $31, Y15, Y15

poolrow:
	MOVQ SI, AX
	LEAQ (SI)(R11*1), DX
	MOVQ DI, R8
	MOVQ R10, CX

poolstep:
	VXORPS (AX), Y15, Y0
	VXORPS 32(AX), Y15, Y1
	VXORPS (DX), Y15, Y2
	VXORPS 32(DX), Y15, Y3
	POOLMIN(Y0, Y2, Y4, Y6)
	POOLMIN(Y1, Y3, Y5, Y7)
	VSHUFPS $0x88, Y5, Y4, Y0
	VSHUFPS $0xDD, Y5, Y4, Y1
	POOLMIN(Y0, Y1, Y2, Y3)
	VXORPS  Y15, Y2, Y2
	VPERMPD $0xD8, Y2, Y2
	VMOVUPS Y2, (R8)
	ADDQ $64, AX
	ADDQ $64, DX
	ADDQ $32, R8
	DECQ CX
	JNZ  poolstep
	ADDQ R12, SI
	ADDQ R13, DI
	DECQ BX
	JNZ  poolrow
	VZEROUPPER

pooldone:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
