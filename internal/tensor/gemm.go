package tensor

import (
	"fmt"

	"repro/internal/faultinject"
)

// This file is the GEMM convolution hot path: Conv2D lowers to an im2col
// column-buffer build plus a cache-blocked, register-blocked sgemm whose
// output-channel row tiles run on the bounded worker pool (parallel.go). The
// direct-loop kernel in ops.go stays only as Conv2DDirect, the reference
// implementation the parity suite in gemm_test.go and FuzzConv2DGEMMParity
// compare against.
//
// Layout: for a conv with C_in input channels and a K×K kernel over an
// H_out×W_out output, the column buffer is a (C_in·K·K) × (H_out·W_out)
// row-major matrix whose row r = (ic, ky, kx) holds, for every output pixel
// (oy, ox), the input value at channel ic, position (oy·stride−pad+ky,
// ox·stride−pad+kx), or 0 outside the input. The filter tensor
// [out][in][kh][kw] flattens to exactly the matching (C_out) × (C_in·K·K)
// row-major A matrix, so C = A·B + bias lands directly in CHW output order
// with no post-pass.

// FaultConvCol guards the im2col column-buffer acquisition — the one large
// scratch allocation each GEMM convolution makes.
const FaultConvCol = "tensor/conv.col"

// kcBlock is the K-dimension cache block of the sgemm: one block of B
// (kcBlock rows × N columns) is streamed repeatedly against every row tile,
// so it is sized to sit in L2 for typical output widths.
const kcBlock = 256

// conv2DGEMM computes the convolution via im2col + blocked GEMM. Arguments
// are pre-validated by Conv2D.
func conv2DGEMM(in *Tensor, spec Conv2DSpec, weights, bias []float32, outShape Shape) (*Tensor, error) {
	inH, inW := in.Shape()[1], in.Shape()[2]
	outH, outW := outShape[1], outShape[2]
	m := spec.OutChannels
	kd := spec.InChannels * spec.Kernel * spec.Kernel
	n := outH * outW

	var col []float32
	if spec.Kernel == 1 && spec.Stride == 1 && spec.Pad == 0 {
		// 1×1 stride-1 convolution: the column matrix is the input itself.
		col = in.Data()
	} else {
		if err := faultinject.Hit(FaultConvCol); err != nil {
			return nil, fmt.Errorf("conv2d column buffer (%d floats): %w", kd*n, err)
		}
		col = getSlab(kd * n)
		defer putSlab(col)
		im2col(in.Data(), col, spec, inH, inW, outH, outW)
	}

	out := newUninit(outShape...)
	sgemm(m, n, kd, weights, col, bias, out.Data())
	return out, nil
}

// im2col fills the (C_in·K·K) × (outH·outW) column matrix for the given conv
// geometry. Every element of col[:kd*n] is written (padding cells as zeros),
// so the destination may be a dirty slab.
func im2col(src, col []float32, spec Conv2DSpec, inH, inW, outH, outW int) {
	k, stride, pad := spec.Kernel, spec.Stride, spec.Pad
	n := outH * outW
	r := 0
	for ic := 0; ic < spec.InChannels; ic++ {
		sBase := ic * inH * inW
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dstRow := col[r*n : (r+1)*n]
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ky
					dst := dstRow[oy*outW : (oy+1)*outW]
					if iy < 0 || iy >= inH {
						zeroFill(dst)
						continue
					}
					srcRow := src[sBase+iy*inW : sBase+(iy+1)*inW]
					if stride == 1 {
						// Valid ox satisfy 0 <= ox - pad + kx < inW.
						lo := pad - kx
						if lo < 0 {
							lo = 0
						}
						hi := inW - 1 + pad - kx
						if hi > outW-1 {
							hi = outW - 1
						}
						zeroFill(dst[:min(lo, outW)])
						if hi >= lo {
							copy(dst[lo:hi+1], srcRow[lo-pad+kx:])
						}
						if hi+1 < outW {
							zeroFill(dst[hi+1:])
						}
						continue
					}
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= inW {
							dst[ox] = 0
						} else {
							dst[ox] = srcRow[ix]
						}
					}
				}
				r++
			}
		}
	}
}

func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// sgemm computes C = A·B + bias, where A is m×k row-major, B is k×n
// row-major, C is m×n row-major, and bias[i] initializes every element of C
// row i. Row tiles of C are distributed over the bounded worker pool; within
// a tile the kernel is register-blocked 4 output rows at a time and
// cache-blocked over k in kcBlock chunks.
func sgemm(m, n, k int, a, b, bias, c []float32) {
	const mr = 4
	tiles := (m + mr - 1) / mr
	ParallelFor(tiles, func(t int) {
		r0 := t * mr
		r1 := r0 + mr
		if r1 > m {
			r1 = m
		}
		sgemmTile(r0, r1, n, k, a, b, bias, c)
	})
}

// sgemmTile computes C rows [r0, r1) (at most 4 rows).
func sgemmTile(r0, r1, n, k int, a, b, bias, c []float32) {
	for r := r0; r < r1; r++ {
		dst := c[r*n : (r+1)*n]
		bv := bias[r]
		for j := range dst {
			dst[j] = bv
		}
	}
	for k0 := 0; k0 < k; k0 += kcBlock {
		k1 := k0 + kcBlock
		if k1 > k {
			k1 = k
		}
		switch r1 - r0 {
		case 4:
			axpy4(r0, n, k0, k1, a[:], b, c, k)
		case 3:
			axpy1(r0+2, n, k0, k1, a, b, c, k)
			axpy2(r0, n, k0, k1, a, b, c, k)
		case 2:
			axpy2(r0, n, k0, k1, a, b, c, k)
		case 1:
			axpy1(r0, n, k0, k1, a, b, c, k)
		}
	}
}

// axpy4 accumulates four C rows against the B block [k0,k1): the classic
// outer-product microkernel — four A scalars are broadcast against one
// streamed B row, updating four C rows per pass, which amortizes each B load
// across four multiply-adds.
func axpy4(r, n, k0, k1 int, a, b, c []float32, lda int) {
	c0 := c[r*n : r*n+n]
	c1 := c[(r+1)*n : (r+1)*n+n]
	c2 := c[(r+2)*n : (r+2)*n+n]
	c3 := c[(r+3)*n : (r+3)*n+n]
	for kk := k0; kk < k1; kk++ {
		a0 := a[r*lda+kk]
		a1 := a[(r+1)*lda+kk]
		a2 := a[(r+2)*lda+kk]
		a3 := a[(r+3)*lda+kk]
		brow := b[kk*n : kk*n+n]
		_ = c0[len(brow)-1]
		_ = c1[len(brow)-1]
		_ = c2[len(brow)-1]
		_ = c3[len(brow)-1]
		for j, v := range brow {
			c0[j] += a0 * v
			c1[j] += a1 * v
			c2[j] += a2 * v
			c3[j] += a3 * v
		}
	}
}

func axpy2(r, n, k0, k1 int, a, b, c []float32, lda int) {
	c0 := c[r*n : r*n+n]
	c1 := c[(r+1)*n : (r+1)*n+n]
	for kk := k0; kk < k1; kk++ {
		a0 := a[r*lda+kk]
		a1 := a[(r+1)*lda+kk]
		brow := b[kk*n : kk*n+n]
		_ = c0[len(brow)-1]
		_ = c1[len(brow)-1]
		for j, v := range brow {
			c0[j] += a0 * v
			c1[j] += a1 * v
		}
	}
}

func axpy1(r, n, k0, k1 int, a, b, c []float32, lda int) {
	c0 := c[r*n : r*n+n]
	for kk := k0; kk < k1; kk++ {
		a0 := a[r*lda+kk]
		if a0 == 0 {
			continue
		}
		brow := b[kk*n : kk*n+n]
		_ = c0[len(brow)-1]
		for j, v := range brow {
			c0[j] += a0 * v
		}
	}
}
