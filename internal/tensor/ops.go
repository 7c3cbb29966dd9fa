package tensor

import (
	"fmt"
	"math"
)

// Conv2DSpec describes a 2-D convolution over a CHW input or a (C, N, H, W)
// batch of them (batch.go).
type Conv2DSpec struct {
	InChannels  int
	OutChannels int
	Kernel      int // square kernel side
	Stride      int
	Pad         int // symmetric zero padding
}

// OutShape returns the output shape of the convolution for the given CHW
// input shape, or the (C_out, N, H', W') batch for a (C, N, H, W) one.
func (c Conv2DSpec) OutShape(in Shape) (Shape, error) {
	ch, _, ih, iw, ok := planes(in)
	if !ok || ch != c.InChannels {
		return nil, fmt.Errorf("%w: conv2d expects (%d,H,W) or (%d,N,H,W), got %v", ErrShape, c.InChannels, c.InChannels, in)
	}
	h := (ih+2*c.Pad-c.Kernel)/c.Stride + 1
	w := (iw+2*c.Pad-c.Kernel)/c.Stride + 1
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("%w: conv2d output %dx%d for input %v", ErrShape, h, w, in)
	}
	return BatchLike(in, Shape{c.OutChannels, h, w}), nil
}

// WeightCount returns the number of filter weights (excluding biases).
func (c Conv2DSpec) WeightCount() int {
	return c.OutChannels * c.InChannels * c.Kernel * c.Kernel
}

// Conv2D computes a 2-D convolution of the CHW input, or of each image of a
// (C, N, H, W) batch, with the given filter weights (layout
// [out][in][kh][kw], row-major) and per-output-channel biases, returning a
// new tensor of the input's kind via the blocked GEMM over the padded input
// (gemm.go).
func Conv2D(in *Tensor, spec Conv2DSpec, weights, bias []float32) (*Tensor, error) {
	return Conv2DFused(in, spec, weights, bias, Epilogue{})
}

// Epilogue is what a convolution does to each output element after the
// reduction and before the element is stored, so that a following batch-norm,
// residual add or ReLU costs no pass of its own over the activation:
// y = conv + bias, then y·Scale[oc] + Shift[oc] when Scale is set, then
// y + Residual[i] when Residual is set, then max(y, 0) when ReLU is set.
// Scale and Shift are per output channel and set together (BatchNormAffine
// derives them from batch-norm statistics). Residual has the output's shape
// and layout, element for element, batch included: a residual block's
// shortcut.
type Epilogue struct {
	Scale, Shift []float32
	Residual     []float32
	ReLU         bool
}

// Conv2DFused is Conv2D with ep applied in the kernel's output step.
func Conv2DFused(in *Tensor, spec Conv2DSpec, weights, bias []float32, ep Epilogue) (*Tensor, error) {
	outShape, err := conv2DCheck(in, spec, weights, bias)
	if err != nil {
		return nil, err
	}
	if (ep.Scale != nil || ep.Shift != nil) && (len(ep.Scale) != spec.OutChannels || len(ep.Shift) != spec.OutChannels) {
		return nil, fmt.Errorf("%w: conv2d epilogue scale/shift len %d/%d, want %d",
			ErrShape, len(ep.Scale), len(ep.Shift), spec.OutChannels)
	}
	// The assembly body reads the residual with no bounds check.
	if ep.Residual != nil && len(ep.Residual) != outShape.NumElements() {
		return nil, fmt.Errorf("%w: conv2d residual len %d, want %d (%v)",
			ErrShape, len(ep.Residual), outShape.NumElements(), outShape)
	}
	return conv2DGEMM(in, spec, weights, bias, ep, outShape)
}

// conv2DCheck validates a convolution's input, weight, and bias shapes and
// returns the output shape.
func conv2DCheck(in *Tensor, spec Conv2DSpec, weights, bias []float32) (Shape, error) {
	outShape, err := spec.OutShape(in.Shape())
	if err != nil {
		return nil, err
	}
	if len(weights) != spec.WeightCount() {
		return nil, fmt.Errorf("%w: conv2d weights len %d, want %d", ErrShape, len(weights), spec.WeightCount())
	}
	if len(bias) != spec.OutChannels {
		return nil, fmt.Errorf("%w: conv2d bias len %d, want %d", ErrShape, len(bias), spec.OutChannels)
	}
	return outShape, nil
}

// PoolSpec describes a 2-D pooling window over a CHW input or a (C, N, H, W)
// batch.
type PoolSpec struct {
	Kernel int
	Stride int
	Pad    int
}

// OutShape returns the output shape of the pooling for the given input, of
// the input's kind.
func (p PoolSpec) OutShape(in Shape) (Shape, error) {
	c, _, ih, iw, ok := planes(in)
	if !ok {
		return nil, fmt.Errorf("%w: pool expects CHW or CNHW, got %v", ErrShape, in)
	}
	h := (ih+2*p.Pad-p.Kernel)/p.Stride + 1
	w := (iw+2*p.Pad-p.Kernel)/p.Stride + 1
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("%w: pool output %dx%d for input %v", ErrShape, h, w, in)
	}
	return BatchLike(in, Shape{c, h, w}), nil
}

// MaxPool2D applies max pooling to the CHW input, or to each image of a
// batch: either way it pools C·N planes alike. A window is clipped to the
// input; one lying entirely in the padding pools to 0. A window holding a NaN
// pools to NaN (Go's builtin max), here and in GridMaxPool.
//
// Kernel 2, stride 2, no padding — every pool of tiny-vgg16, tiny-alexnet
// and tiny-densenet — runs each plane's output rows through the row-pair
// contract (maxPool2x2, kernel.go) in one call, eight outputs per AVX2 step
// where the CPU has it; an odd last input row or column is dropped. Every
// other spec takes the windowed path: an output row is its window's clipped
// input rows folded elementwise into one, then that row folded over each
// output's column window — plain loops over contiguous rows, with the
// builtin max, which compiles without a data-dependent branch: activations
// are not predictable. The columns whose window lies inside the input (all
// of them when the window tiles it) fold a tap at a time across the row;
// only the clipped ones at the edges test bounds, once per output.
func MaxPool2D(in *Tensor, spec PoolSpec) (*Tensor, error) {
	outShape, err := spec.OutShape(in.Shape())
	if err != nil {
		return nil, err
	}
	c, nb, inH, inW, _ := planes(in.Shape())
	_, _, outH, outW, _ := planes(outShape)
	c *= nb
	k, s, pad := spec.Kernel, spec.Stride, spec.Pad
	out := newUninit(outShape...)
	src, dst := in.Data(), out.Data()
	if k == 2 && s == 2 && pad == 0 {
		for ch := 0; ch < c; ch++ {
			maxPool2x2(dst[ch*outH*outW:], src[ch*inH*inW:], outH, outW, inW)
		}
		return out, nil
	}

	// The windows of outputs lo ≤ ox < hi lie inside the input; no window
	// reads past column w−1, so a folded row is w wide.
	lo := min((pad+s-1)/s, outW)
	hi := lo
	if inW+pad >= k {
		hi = max(lo, min(outW, (inW+pad-k)/s+1))
	}
	w := max(0, min(inW, (outW-1)*s-pad+k))
	fold := getSlab(w)
	defer putSlab(fold)
	for ch := 0; ch < c; ch++ {
		plane := src[ch*inH*inW : (ch+1)*inH*inW]
		for oy := 0; oy < outH; oy++ {
			drow := dst[(ch*outH+oy)*outW:][:outW]
			y0 := oy*s - pad
			y1 := min(y0+k, inH)
			y0 = max(y0, 0)
			if y0 >= y1 {
				zeroFill(drow) // every window of the row lies in the padding
				continue
			}
			copy(fold, plane[y0*inW:][:w])
			for y := y0 + 1; y < y1; y++ {
				for i, v := range plane[y*inW:][:w] {
					fold[i] = max(fold[i], v)
				}
			}
			inner, taps := drow[lo:hi], fold[min(lo*s-pad, w):] // taps is unread when inner is empty
			for ox := range inner {
				inner[ox] = taps[ox*s]
			}
			for kx := 1; kx < k; kx++ {
				for ox, v := range inner {
					inner[ox] = max(v, taps[ox*s+kx])
				}
			}
			for _, edge := range [2][2]int{{0, lo}, {hi, outW}} {
				for ox := edge[0]; ox < edge[1]; ox++ {
					x0 := ox*s - pad
					x1 := min(x0+k, w)
					x0 = max(x0, 0)
					acc := float32(0) // the window lies entirely in the padding
					if x0 < x1 {
						acc = fold[x0]
						for _, v := range fold[x0+1 : x1] {
							acc = max(acc, v)
						}
					}
					drow[ox] = acc
				}
			}
		}
	}
	return out, nil
}

// gridAxis returns the kernel, stride, and output extent that reduce one
// spatial axis of length n to the grid target. Axes already at or below the
// target pass through with an identity 1/1 window.
func gridAxis(n, grid int) (kernel, stride, out int) {
	if n <= grid {
		return 1, 1, n
	}
	stride = n / grid
	kernel = n - (grid-1)*stride
	return kernel, stride, grid
}

// GridMaxPool reduces a CHW feature map to a (C, grid, grid) tensor, or each
// image of a (C, N, H, W) batch to (C, N, grid, grid), using max
// pooling with per-axis window and stride chosen to produce a grid×grid
// output; an axis already at or below the target passes through unchanged, so
// non-square inputs reduce correctly on each axis independently. This
// implements the dimensionality-reduction pooling the paper applies to
// convolutional feature layers before downstream training (Section 5,
// footnote 4: "filter width and stride for max pooling are set to reduce the
// feature tensor to a 2x2 grid of the same depth").
//
// The result never aliases the input, even when no reduction is needed:
// callers hand pooled features to downstream in-place ops, and an aliased
// return would let them corrupt the source feature map.
func GridMaxPool(in *Tensor, grid int) (*Tensor, error) {
	s := in.Shape()
	c, nb, inH, inW, ok := planes(s)
	if !ok {
		return nil, fmt.Errorf("%w: GridMaxPool expects CHW or CNHW, got %v", ErrShape, s)
	}
	if grid <= 0 {
		return nil, fmt.Errorf("%w: GridMaxPool grid %d", ErrShape, grid)
	}
	if inH <= grid && inW <= grid {
		// Already at or below target resolution; nothing to reduce. Copy so
		// the caller owns its result and cannot mutate the source map.
		out := newUninit(s...)
		copy(out.Data(), in.Data())
		return out, nil
	}
	kh, sh, outH := gridAxis(inH, grid)
	kw, sw, outW := gridAxis(inW, grid)
	out := newUninit(BatchLike(s, Shape{c, outH, outW})...)
	src, dst := in.Data(), out.Data()
	for ch := 0; ch < c*nb; ch++ {
		sBase := ch * inH * inW
		for oy := 0; oy < outH; oy++ {
			iy0 := oy * sh
			for ox := 0; ox < outW; ox++ {
				ix0 := ox * sw
				acc := float32(math.Inf(-1))
				for ky := 0; ky < kh; ky++ {
					rowBase := sBase + (iy0+ky)*inW
					for _, v := range src[rowBase+ix0:][:kw] {
						acc = max(acc, v)
					}
				}
				dst[(ch*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out, nil
}

// GridPooledShape returns the shape GridMaxPool would produce for the given
// input shape without computing anything.
func GridPooledShape(in Shape, grid int) Shape {
	if len(in) != 3 || grid <= 0 || (in[1] <= grid && in[2] <= grid) {
		return in.Clone()
	}
	_, _, h := gridAxis(in[1], grid)
	_, _, w := gridAxis(in[2], grid)
	return Shape{in[0], h, w}
}

// ConcatChannels concatenates CHW tensors, or (C, N, H, W) batches, along
// the channel dimension; all inputs must share every other dimension. The
// channel is the outermost dimension either way, so the result is the inputs
// end to end. It is the primitive behind DAG-structured CNN blocks
// (DenseNet-style concatenation).
func ConcatChannels(ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("%w: concat of no tensors", ErrShape)
	}
	first := ts[0].Shape()
	if _, _, _, _, ok := planes(first); !ok {
		return nil, fmt.Errorf("%w: concat expects CHW or CNHW, got %v", ErrShape, first)
	}
	totalC := 0
	for _, t := range ts {
		s := t.Shape()
		if len(s) != len(first) || !s[1:].Equal(first[1:]) {
			return nil, fmt.Errorf("%w: concat mismatch %v vs %v", ErrShape, s, first)
		}
		totalC += s[0]
	}
	shape := first.Clone()
	shape[0] = totalC
	out := newUninit(shape...) // the copies below cover every element
	off := 0
	for _, t := range ts {
		n := copy(out.Data()[off:], t.Data())
		off += n
	}
	return out, nil
}

// ReLU applies max(0, x) elementwise in place and returns the input tensor.
func ReLU(t *Tensor) *Tensor {
	d := t.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return t
}

// AddInPlace adds b into a elementwise (a += b); shapes must match. A
// residual block adds its shortcut in the convolution's epilogue instead
// (Epilogue.Residual); this pass is the reference that epilogue is held to.
//
//vista:keep the reference the residual epilogue tests compare against
func AddInPlace(a, b *Tensor) error {
	if !a.Shape().Equal(b.Shape()) {
		return fmt.Errorf("%w: add %v + %v", ErrShape, a.Shape(), b.Shape())
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		ad[i] += bd[i]
	}
	return nil
}

// MatVec computes out = W·x + b where W is row-major (rows × cols),
// x has cols elements, and b has rows elements. It implements a fully
// connected layer over a flattened input.
func MatVec(w []float32, rows, cols int, x, b []float32) ([]float32, error) {
	if len(w) != rows*cols || len(x) != cols || len(b) != rows {
		return nil, fmt.Errorf("%w: matvec %dx%d with |w|=%d |x|=%d |b|=%d",
			ErrShape, rows, cols, len(w), len(x), len(b))
	}
	out := make([]float32, rows)
	r := 0
	// Four rows per pass: one stream over x feeds four dot-product
	// accumulators, quartering the loop overhead on large FC layers.
	for ; r+4 <= rows; r += 4 {
		w0 := w[r*cols : r*cols+cols]
		w1 := w[(r+1)*cols : (r+1)*cols+cols]
		w2 := w[(r+2)*cols : (r+2)*cols+cols]
		w3 := w[(r+3)*cols : (r+3)*cols+cols]
		var s0, s1, s2, s3 float32
		for c, xv := range x[:cols] {
			s0 += w0[c] * xv
			s1 += w1[c] * xv
			s2 += w2[c] * xv
			s3 += w3[c] * xv
		}
		out[r] = s0 + b[r]
		out[r+1] = s1 + b[r+1]
		out[r+2] = s2 + b[r+2]
		out[r+3] = s3 + b[r+3]
	}
	for ; r < rows; r++ {
		base := r * cols
		sum := b[r]
		for c, xv := range x {
			sum += w[base+c] * xv
		}
		out[r] = sum
	}
	return out, nil
}

// BatchNormAffine folds inference-time batch normalization,
// y = gamma * (x - mean) / sqrt(var + eps) + beta, into the per-channel
// affine y = x*scale + shift. All parameter slices must have equal length.
func BatchNormAffine(gamma, beta, mean, variance []float32, eps float32) (scale, shift []float32, err error) {
	c := len(gamma)
	if len(beta) != c || len(mean) != c || len(variance) != c {
		return nil, nil, fmt.Errorf("%w: batchnorm params for %d channels", ErrShape, c)
	}
	affine := make([]float32, 2*c)
	scale, shift = affine[:c:c], affine[c:]
	for ch := range scale {
		scale[ch] = gamma[ch] / float32(math.Sqrt(float64(variance[ch]+eps)))
		shift[ch] = beta[ch] - mean[ch]*scale[ch]
	}
	return scale, shift, nil
}

// GlobalAvgPool reduces a CHW tensor to a length-C vector by averaging each
// channel's spatial plane, and a (C, N, H, W) batch to its (N, C) batch of
// vectors.
func GlobalAvgPool(in *Tensor) (*Tensor, error) {
	s := in.Shape()
	c, nb, h, w, ok := planes(s)
	if !ok {
		return nil, fmt.Errorf("%w: GlobalAvgPool expects CHW or CNHW, got %v", ErrShape, s)
	}
	hw := h * w
	out := New(BatchLike(s, Shape{c})...)
	src, dst := in.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		for n := 0; n < nb; n++ {
			var sum float32
			for _, v := range src[(ch*nb+n)*hw:][:hw] {
				sum += v
			}
			dst[n*c+ch] = sum / float32(hw)
		}
	}
	return out, nil
}
