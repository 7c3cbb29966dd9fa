package tensor

import (
	"fmt"

	"repro/internal/faultinject"
)

// This file is the GEMM convolution hot path: Conv2D lowers to an im2col
// column-buffer build plus a cache-blocked, register-blocked sgemm. One
// convolution runs on its caller's goroutine — a roster conv is 10–100 µs of
// kernel, too little to share — and parallelism comes from the rows of a
// batch (internal/dl, over parallel.go). The direct-loop kernel in ops.go
// stays only as Conv2DDirect, the reference implementation the parity suite
// in gemm_test.go and FuzzConv2DGEMMParity compare against. The arithmetic
// itself is the micro-kernel in kernel.go.
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

// kcBlock is the K-dimension block of the sgemm: one kernel call reduces at
// most kcBlock terms, so the A tile (mr × kcBlock) and the B panel
// (kcBlock × nr) it streams stay L1-resident while the accumulators are in
// registers. Every roster conv except tiny-alexnet's and tiny-densenet's
// widest (K = 432, 360) fits one block.
const kcBlock = 256

// conv2DGEMM computes the convolution via im2col + blocked GEMM, with ep
// applied per output channel. Arguments are pre-validated by Conv2DFused.
func conv2DGEMM(in *Tensor, spec Conv2DSpec, weights, bias []float32, ep Epilogue, outShape Shape) (*Tensor, error) {
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
	sgemm(m, n, kd, weights, col, bias, out.Data(), ep)
	return out, nil
}

// im2col fills the (C_in·K·K) × (outH·outW) column matrix for the given conv
// geometry. Every element of col[:kd*n] is written (padding cells as zeros),
// so the destination may be a dirty slab.
func im2col(src, col []float32, spec Conv2DSpec, inH, inW, outH, outW int) {
	k, stride, pad := spec.Kernel, spec.Stride, spec.Pad
	n := outH * outW
	same := stride == 1 && outH == inH && outW == inW
	r := 0
	for ic := 0; ic < spec.InChannels; ic++ {
		sBase := ic * inH * inW
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dstRow := col[r*n : (r+1)*n]
				if same {
					shiftPlane(dstRow, src[sBase:sBase+n], inH, inW, ky-pad, kx-pad)
					r++
					continue
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ky
					dst := dstRow[oy*outW : (oy+1)*outW]
					if iy < 0 || iy >= inH {
						zeroFill(dst)
						continue
					}
					srcRow := src[sBase+iy*inW : sBase+(iy+1)*inW]
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

// shiftPlane writes dst[y][x] = src[y+dy][x+dx], or 0 where that falls
// outside the h×w plane: one column-matrix row of a stride-1 convolution
// whose output is as large as its input. Inside the plane the shift is a
// constant offset dy·w+dx between the two flat arrays, so the row is one
// bulk copy; what the copy wraps around a row end, and the rows it does not
// reach, are then zeroed. The deep layers' rows are 4–16 floats wide, where
// copying row by row costs more in calls than in bytes.
func shiftPlane(dst, src []float32, h, w, dy, dx int) {
	yLo, yHi := max(0, -dy), min(h, h-dy) // output rows that read inside the plane
	if yLo >= yHi || dx <= -w || dx >= w {
		zeroFill(dst)
		return
	}
	off := dy*w + dx
	d0, d1 := max(yLo*w, -off), min(yHi*w, h*w-off)
	zeroFill(dst[:d0])
	copy(dst[d0:d1], src[d0+off:d1+off])
	zeroFill(dst[d1:])
	for y := yLo; y < yHi; y++ {
		row := dst[y*w : (y+1)*w]
		if dx < 0 {
			zeroFill(row[:-dx])
		} else {
			zeroFill(row[w-dx:])
		}
	}
}

func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// sgemm computes C = epilogue(A·B + bias), where A is m×k row-major, B is
// k×n row-major, C is m×n row-major, bias[i] starts every element of C row i,
// and ep (per C row) is applied once, when the reduction is complete. C is
// cut into mr×nr tiles, each computed by the micro-kernel (kernel.go), one
// mr-row strip of that grid after another.
//
// A ragged last strip (m % mr) or last column panel (n % nr) goes through
// the same kernel on zero-padded copies of the A strip and B panel, built
// here once per call, so there is no scalar edge path. An element of C is
// the same sum in the same order wherever its tile falls.
func sgemm(m, n, k int, a, b, bias, c []float32, ep Epilogue) {
	g := gemm{m: m, n: n, k: k, a: a, b: b, c: c, bias: bias, ep: ep}
	if rows := m % mr; rows != 0 {
		// The last strip's A rows and per-row vectors, padded to mr rows.
		r0 := m - rows
		g.aEdge = getSlab(mr * k)
		defer putSlab(g.aEdge)
		zeroFill(g.aEdge)
		copy(g.aEdge, a[r0*k:])
		copy(g.biasEdge[:], bias[r0:])
		if ep.Scale != nil {
			copy(g.scaleEdge[:], ep.Scale[r0:])
			copy(g.shiftEdge[:], ep.Shift[r0:])
		}
	}
	if cols := n % nr; cols != 0 {
		// The last panel's B columns, padded to nr columns.
		g.bEdge = getSlab(k * nr)
		defer putSlab(g.bEdge)
		zeroFill(g.bEdge)
		for p := 0; p < k; p++ {
			copy(g.bEdge[p*nr:p*nr+cols], b[p*n+n-cols:])
		}
	}
	for s := 0; s < (m+mr-1)/mr; s++ {
		g.strip(s)
	}
}

// gemm is one sgemm call's operands.
type gemm struct {
	m, n, k       int
	a, b, c, bias []float32
	ep            Epilogue
	// Zero-padded copies of a ragged last A strip, with its per-row vectors,
	// and of a ragged last B panel.
	aEdge, bEdge                   []float32
	biasEdge, scaleEdge, shiftEdge [mr]float32
}

// strip computes C rows [s·mr, s·mr+mr): for each column panel, the
// reduction in kcBlock steps — bias on the first, the epilogue on the last,
// the tile carried in C between them.
func (g *gemm) strip(s int) {
	r0 := s * mr
	a, bias, scale, shift := g.a[r0*g.k:], g.bias[r0:], g.ep.Scale, g.ep.Shift
	if scale != nil {
		scale, shift = scale[r0:], shift[r0:]
	}
	rows := min(mr, g.m-r0)
	if rows < mr {
		a, bias = g.aEdge, g.biasEdge[:]
		if scale != nil {
			scale, shift = g.scaleEdge[:], g.shiftEdge[:]
		}
	}
	var cEdge [mr * nr]float32
	t := tile{lda: g.k}
	for j0 := 0; j0 < g.n; j0 += nr {
		cols := min(nr, g.n-j0)
		b, ldb := g.b[j0:], g.n
		if cols < nr {
			b, ldb = g.bEdge, nr
		}
		t.c, t.ldc = g.c[r0*g.n+j0:], g.n
		edge := rows < mr || cols < nr
		if edge {
			t.c, t.ldc = cEdge[:], nr
		}
		t.ldb = ldb
		for k0 := 0; k0 < g.k; k0 += kcBlock {
			t.k = min(kcBlock, g.k-k0)
			t.a, t.b = a[k0:], b[k0*ldb:]
			t.bias, t.scale, t.shift, t.relu = nil, nil, nil, false
			if k0 == 0 {
				t.bias = bias
			}
			if k0+t.k == g.k {
				t.scale, t.shift, t.relu = scale, shift, g.ep.ReLU
			}
			kernel(&t)
		}
		if edge {
			for i := 0; i < rows; i++ {
				copy(g.c[(r0+i)*g.n+j0:(r0+i)*g.n+j0+cols], cEdge[i*nr:])
			}
		}
	}
}
