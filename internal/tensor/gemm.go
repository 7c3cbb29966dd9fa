package tensor

import (
	"fmt"
	"math"

	"repro/internal/faultinject"
)

// This file is the GEMM convolution hot path: Conv2D is a cache-blocked,
// register-blocked GEMM whose B operand is the convolution's input, read in
// place through a table of offsets — Dukhan's indirect convolution, with the
// indirection per reduction row instead of per pixel. One convolution runs
// on its caller's goroutine over a whole batch of images (batch.go): one
// GEMM with the images' output columns side by side, n = N·H·W, so a small
// late-stage image no longer pays the call's set-up alone or fills a
// 16-wide panel with padding. dl.PartitionFunc runs a partition's batches in
// order, and parallelism comes from the dataflow engine running a stage's
// partitions side by side. The direct-loop kernel lives in gemm_test.go as
// Conv2DDirect, the reference implementation the parity suite there and
// FuzzConv2DGEMMParity compare against. The arithmetic
// itself is the micro-kernel in kernel.go.
//
// Layout: the filter tensor [out][in][kh][kw] flattens to the (C_out) ×
// (C_in·K·K) row-major A matrix, whose reduction index is p = (ic, ky, kx).
// The input is a (C, N, H, W) batch, a CHW image being N = 1, so it is C·N
// planes. conv2DGEMM copies them once into a zero-padded slab of planes wq
// floats wide, and B row p, column oy·wq+ox of image img, is the slab float
// at boff[p] + img·plane + oy·wq + ox with boff[p] = ic·N·plane + ky·wq +
// kx: the input under tap (ky, kx) of that image's output pixel (oy, ox),
// or a padding zero. A B panel is 16 consecutive floats of one padded row,
// and no column matrix is built. C is C_out × (N·outH·outW), which is the
// output batch as it stands.
//
//   - Stride s > 1: each plane becomes np² phase planes, np = min(k, s),
//     Q[ic][img][py][px][y][x] = padded[ic][img][y·s+py][x·s+px], read at
//     stride 1: boff = base(ic, ky%s, kx%s) + (ky/s)·wq + kx/s, and images
//     np²·plane apart. A kernel narrower than its stride reads only phases
//     below k, so a 1×1 stride-2 projection copies one plane of the four.
//   - Panels walk output rows, writing C straight into the output, when
//     outW is a multiple of 16 (or the planes are exactly outW wide) and an
//     image is whole panels; when the batch's outputs are one contiguous
//     run of B (planes exactly outW wide and outH tall), panels walk it
//     across images. Otherwise they walk each image's outH × wq grid,
//     rounded up to whole panels, into a scratch C, and one copy compacts
//     it; a residual operand is staged into the same grids.
//   - When the padded slab would equal the input (stride 1, no padding,
//     panels written straight), the input is read in place: a 1×1 conv over
//     n = N·H·W pixels, n a multiple of 16, has boff[p] = p·n.
//
// The reduction runs in the same order (p ascending, kcBlock terms per
// kernel call) over the same terms, padding zeros included, as over an
// explicit column matrix, so the outputs are bit for bit those of the
// column-buffer GEMM this replaced, on each kernel body, and an image's are
// the same in any batch and at any slot of it.

// FaultConvPad guards the padded-slab acquisition — the one large scratch
// allocation a GEMM convolution makes when it cannot read its input in place.
const FaultConvPad = "tensor/conv.pad"

// kcBlock is the K-dimension block of the GEMM: one kernel call reduces at
// most kcBlock terms, so the A tile (mr × kcBlock) and the B rows it streams
// stay L1-resident while the accumulators are in registers. Every roster conv
// except tiny-alexnet's and tiny-densenet's widest (K = 432, 360) fits one
// block.
const kcBlock = 256

// conv2DGEMM computes the convolution as one offset-table GEMM over the
// (padded) input, with ep applied per output channel. Arguments are
// pre-validated by Conv2DFused.
func conv2DGEMM(in *Tensor, spec Conv2DSpec, weights, bias []float32, ep Epilogue, outShape Shape) (*Tensor, error) {
	c, nb, inH, inW, _ := planes(in.Shape())
	_, _, outH, outW, _ := planes(outShape)
	k, s, pad := spec.Kernel, spec.Stride, spec.Pad
	hw := outH * outW

	// The padded extent covers every output's receptive field, not just the
	// input plus its padding: OutShape truncates toward zero, so a kernel
	// that overhangs the padded input still yields one output, and the taps
	// past the edge must read zeros.
	hq := (max(inH+2*pad, (outH-1)*s+k) + s - 1) / s
	wq := (max(inW+2*pad, (outW-1)*s+k) + s - 1) / s
	plane := hq * wq
	np := min(k, s)
	g := gemm{m: spec.OutChannels, k: c * k * k, a: weights, bias: bias, ep: ep, boff: make([]int32, c*k*k)}
	// boff[(ic, ky, kx)] = (((ic·nb)·np + ky%s)·np + kx%s)·plane + (ky/s)·wq +
	// kx/s, image 0's plane of that phase, walked with the phases as counters
	// instead of dividing per entry.
	maxOff, p := 0, 0
	for ic := 0; ic < c; ic++ {
		for ky, py, qy := 0, 0, 0; ky < k; ky++ {
			row := (ic*nb*np+py)*np*plane + qy*wq
			for kx, px, qx := 0, 0, 0; kx < k; kx++ {
				off := row + px*plane + qx
				g.boff[p] = int32(off)
				maxOff = max(maxOff, off)
				p++
				if px++; px == s {
					px, qx = 0, qx+1
				}
			}
			if py++; py == s {
				py, qy = 0, qy+1
			}
		}
	}

	// An image's outputs are one run of B when its planes are exactly outW
	// wide, and the batch's are when, besides, each image is one plane of
	// outH rows: then a panel may span rows and images.
	g.imgStride = np * np * plane
	contiguous := outW == wq && g.imgStride == hw
	direct := nb*hw%nr == 0 && (contiguous || hw%nr == 0 && (outW%nr == 0 || outW == wq))
	switch {
	case direct:
		g.n, g.imgCols, g.rowW, g.ldRow = nb*hw, hw, outW, wq
	case contiguous:
		g.n = (nb*hw + nr - 1) / nr * nr
		g.imgCols, g.rowW = g.n, g.n
	default:
		g.imgCols = (outH*wq + nr - 1) / nr * nr
		g.n, g.rowW = nb*g.imgCols, g.imgCols
	}

	if direct && s == 1 && pad == 0 {
		g.b = in.Data() // the padded slab would be the input itself
	} else {
		floats := c * nb * np * np * plane
		if err := faultinject.Hit(FaultConvPad); err != nil {
			return nil, fmt.Errorf("conv2d padded input (%d floats): %w", floats, err)
		}
		// The wide grid's last panel runs up to nr−1 columns past outH·wq,
		// and a tap's offset inside its plane up to (k−1)/s past the grid.
		g.b = getSlab(floats + nr + k)
		defer putSlab(g.b)
		padPhases(g.b, in.Data(), c*nb, inH, inW, pad, s, np, hq, wq)
	}
	// The assembly body indexes B through boff with no bounds check.
	if last := maxOff + g.panel(g.n-nr) + nr; maxOff > math.MaxInt32 || last > len(g.b) {
		panic(fmt.Sprintf("tensor: conv2d %+v over %v: B reads reach float %d of %d", spec, in.Shape(), last, len(g.b)))
	}

	out := newUninit(outShape...)
	if direct {
		g.c = out.Data()
		g.run()
		return out, nil
	}
	// The wide grid: image img's output (oy, ox) is C column
	// img·cImg + oy·wq + ox, cImg the columns per image.
	cImg := g.imgCols
	if contiguous {
		cImg = hw
	}
	g.c = getSlab(g.m * g.n)
	defer putSlab(g.c)
	if ep.Residual != nil {
		// The residual goes where its output element sits in the scratch C.
		// The grid columns past outW keep whatever the slab held: they land
		// only in the C columns the compaction below drops.
		res := getSlab(g.m * g.n)
		defer putSlab(res)
		for oc := 0; oc < g.m; oc++ {
			for img := 0; img < nb; img++ {
				for oy := 0; oy < outH; oy++ {
					copy(res[oc*g.n+img*cImg+oy*wq:][:outW], ep.Residual[((oc*nb+img)*outH+oy)*outW:])
				}
			}
		}
		g.ep.Residual = res
	}
	g.run()
	dst := out.Data()
	for oc := 0; oc < g.m; oc++ {
		for img := 0; img < nb; img++ {
			for oy := 0; oy < outH; oy++ {
				copy(dst[((oc*nb+img)*outH+oy)*outW:][:outW], g.c[oc*g.n+img*cImg+oy*wq:])
			}
		}
	}
	return out, nil
}

// padPhases writes the c×h×w input src into dst as c·np² phase planes of
// hq×wq floats, Q[ic][py][px][y][x] = padded[ic][y·s+py][x·s+px] for py, px
// < np, where padded is src behind pad zeros on every side and zeros beyond.
// Every float of dst is written, zeros past the planes, so dst may be a dirty
// slab. At stride 1 each row is one copy; past it, each phase row is a
// strided gather from its source row.
func padPhases(dst, src []float32, c, h, w, pad, s, np, hq, wq int) {
	plane := hq * wq
	zeroFill(dst)
	if s == 1 {
		for ic := 0; ic < c; ic++ {
			for iy := 0; iy < h; iy++ {
				copy(dst[ic*plane+(iy+pad)*wq+pad:], src[(ic*h+iy)*w:][:w])
			}
		}
		return
	}
	// Input row or column i is padded i+pad = (i+pad)/s·s + (i+pad)%s, so
	// phase px's first input column is px−r (padded column q·s+px), or px−r+s
	// one plane column later, and it holds every s-th column from there.
	q, r := pad/s, pad%s
	for ic := 0; ic < c; ic++ {
		for px := 0; px < np; px++ {
			ix0, x0 := px-r, q
			if ix0 < 0 {
				ix0, x0 = ix0+s, x0+1
			}
			if ix0 >= w {
				continue // the phase holds padding only
			}
			n := (w - ix0 + s - 1) / s
			y, py := q, r
			for iy := 0; iy < h; iy++ {
				if py < np {
					row := src[(ic*h+iy)*w+ix0:]
					d := dst[((ic*np+py)*np+px)*plane+y*wq+x0:][:n]
					for j := range d {
						d[j] = row[j*s]
					}
				}
				if py++; py == s {
					py, y = 0, y+1
				}
			}
		}
	}
}

func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// gemm is one convolution's matrix product,
//
//	C[m×n] = epilogue(A[m×k]·B[k×n] + bias),
//
// with A and C row-major and dense, n a multiple of nr, bias[i] starting
// every element of C row i, and ep (per C row) applied once, when the
// reduction is complete; ep.Residual, when set, is laid out like C. B is read
// through the offset table: row p of the panel at column j0 starts at
// b[panel(j0)+boff[p]].
type gemm struct {
	m, n, k    int
	a, bias, c []float32
	b          []float32
	boff       []int32
	// Panels walk B an image of imgCols columns every imgStride floats, and
	// inside an image in runs of rowW columns, one run every ldRow floats:
	// output rows over a wider padded plane, or (rowW = imgCols) one run.
	imgCols, imgStride, rowW, ldRow int
	ep                              Epilogue
	// A zero-padded copy of a ragged last A strip, with its per-row vectors.
	aEdge                          []float32
	biasEdge, scaleEdge, shiftEdge [mr]float32
}

// panel returns the offset in b of the B panel whose first column is j0.
func (g *gemm) panel(j0 int) int {
	j := j0 % g.imgCols
	return j0/g.imgCols*g.imgStride + j/g.rowW*g.ldRow + j%g.rowW
}

// run cuts C into mr×nr tiles, each computed by the micro-kernel (kernel.go),
// one mr-row strip of that grid after another. A ragged last strip (m % mr)
// goes through the same kernel on a zero-padded copy of its A rows, built
// here once per call, so there is no scalar edge path. An element of C is
// the same sum in the same order wherever its tile falls.
func (g *gemm) run() {
	if rows := g.m % mr; rows != 0 {
		r0 := g.m - rows
		g.aEdge = getSlab(mr * g.k)
		defer putSlab(g.aEdge)
		zeroFill(g.aEdge)
		copy(g.aEdge, g.a[r0*g.k:])
		copy(g.biasEdge[:], g.bias[r0:])
		if g.ep.Scale != nil {
			copy(g.scaleEdge[:], g.ep.Scale[r0:])
			copy(g.shiftEdge[:], g.ep.Shift[r0:])
		}
	}
	for s := 0; s < (g.m+mr-1)/mr; s++ {
		g.strip(s)
	}
}

// strip computes C rows [s·mr, s·mr+mr): for each column panel, the
// reduction in kcBlock steps — bias on the first, the epilogue (and with it
// the residual) on the last, the tile carried in C between them. A ragged
// strip stages its C and residual rows through mr×nr tiles.
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
	var cEdge, rEdge [mr * nr]float32
	t := tile{lda: g.k}
	var res []float32
	for j0 := 0; j0 < g.n; j0 += nr {
		t.b = g.b[g.panel(j0):]
		t.c, t.ldc = g.c[r0*g.n+j0:], g.n
		if g.ep.Residual != nil {
			res, t.ldr = g.ep.Residual[r0*g.n+j0:], g.n
		}
		if rows < mr {
			t.c, t.ldc = cEdge[:], nr
			if res != nil {
				for i := 0; i < rows; i++ {
					copy(rEdge[i*nr:][:nr], res[i*g.n:])
				}
				res, t.ldr = rEdge[:], nr
			}
		}
		for k0 := 0; k0 < g.k; k0 += kcBlock {
			t.k = min(kcBlock, g.k-k0)
			t.a, t.boff = a[k0:], g.boff[k0:k0+t.k]
			t.bias, t.scale, t.shift, t.res, t.relu = nil, nil, nil, nil, false
			if k0 == 0 {
				t.bias = bias
			}
			if k0+t.k == g.k {
				t.scale, t.shift, t.res, t.relu = scale, shift, res, g.ep.ReLU
			}
			kernel(&t)
		}
		if rows < mr {
			for i := 0; i < rows; i++ {
				copy(g.c[(r0+i)*g.n+j0:][:nr], cEdge[i*nr:])
			}
		}
	}
}
