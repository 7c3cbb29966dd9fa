package tensor

import (
	"fmt"
	"math"
)

// Conv2DSpec describes a 2-D convolution over a CHW input.
type Conv2DSpec struct {
	InChannels  int
	OutChannels int
	Kernel      int // square kernel side
	Stride      int
	Pad         int // symmetric zero padding
}

// OutShape returns the CHW output shape of the convolution for the given CHW
// input shape.
func (c Conv2DSpec) OutShape(in Shape) (Shape, error) {
	if len(in) != 3 || in[0] != c.InChannels {
		return nil, fmt.Errorf("%w: conv2d expects (%d,H,W), got %v", ErrShape, c.InChannels, in)
	}
	h := (in[1]+2*c.Pad-c.Kernel)/c.Stride + 1
	w := (in[2]+2*c.Pad-c.Kernel)/c.Stride + 1
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("%w: conv2d output %dx%d for input %v", ErrShape, h, w, in)
	}
	return Shape{c.OutChannels, h, w}, nil
}

// WeightCount returns the number of filter weights (excluding biases).
func (c Conv2DSpec) WeightCount() int {
	return c.OutChannels * c.InChannels * c.Kernel * c.Kernel
}

// Conv2D computes a 2-D convolution of the CHW input with the given filter
// weights (layout [out][in][kh][kw], row-major) and per-output-channel
// biases, returning a new CHW tensor via the im2col + blocked-GEMM kernel
// (gemm.go).
func Conv2D(in *Tensor, spec Conv2DSpec, weights, bias []float32) (*Tensor, error) {
	return Conv2DFused(in, spec, weights, bias, Epilogue{})
}

// Epilogue is what a convolution does to each output element after the
// reduction and before the element is stored, so that a following batch-norm
// or ReLU costs no pass of its own over the activation: y = conv + bias, then
// y·Scale[oc] + Shift[oc] when Scale is set, then max(y, 0) when ReLU is set.
// Scale and Shift are per output channel and set together (BatchNormAffine
// derives them from batch-norm statistics).
type Epilogue struct {
	Scale, Shift []float32
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

// Conv2DDirect computes the convolution with the naive triple-loop kernel. It
// is the permanent reference implementation for the GEMM path only: the
// parity test suite asserts Conv2D against it across the geometry grid, and
// nothing serves traffic through it.
//
//vista:keep the reference the GEMM parity suite and fuzzer compare against
func Conv2DDirect(in *Tensor, spec Conv2DSpec, weights, bias []float32) (*Tensor, error) {
	outShape, err := conv2DCheck(in, spec, weights, bias)
	if err != nil {
		return nil, err
	}
	inH, inW := in.Shape()[1], in.Shape()[2]
	outH, outW := outShape[1], outShape[2]
	out := New(outShape...)
	src := in.Data()
	dst := out.Data()
	k := spec.Kernel

	for oc := 0; oc < spec.OutChannels; oc++ {
		wBase := oc * spec.InChannels * k * k
		b := bias[oc]
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*spec.Stride - spec.Pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*spec.Stride - spec.Pad
				sum := b
				for ic := 0; ic < spec.InChannels; ic++ {
					sBase := ic * inH * inW
					fBase := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						rowBase := sBase + iy*inW
						fRow := fBase + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							sum += src[rowBase+ix] * weights[fRow+kx]
						}
					}
				}
				dst[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out, nil
}

// PoolSpec describes a 2-D pooling window over a CHW input.
type PoolSpec struct {
	Kernel int
	Stride int
	Pad    int
}

// OutShape returns the CHW output shape of the pooling for the given input.
func (p PoolSpec) OutShape(in Shape) (Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("%w: pool expects CHW, got %v", ErrShape, in)
	}
	h := (in[1]+2*p.Pad-p.Kernel)/p.Stride + 1
	w := (in[2]+2*p.Pad-p.Kernel)/p.Stride + 1
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("%w: pool output %dx%d for input %v", ErrShape, h, w, in)
	}
	return Shape{in[0], h, w}, nil
}

// MaxPool2D applies max pooling to the CHW input. A window holding a NaN
// pools to NaN (Go's builtin max), here and in GridMaxPool.
func MaxPool2D(in *Tensor, spec PoolSpec) (*Tensor, error) {
	outShape, err := spec.OutShape(in.Shape())
	if err != nil {
		return nil, err
	}
	c, inH, inW := in.Shape()[0], in.Shape()[1], in.Shape()[2]
	outH, outW := outShape[1], outShape[2]
	out := newUninit(outShape...)
	src := in.Data()
	dst := out.Data()
	if spec.Pad == 0 && spec.Kernel == spec.Stride {
		maxPoolTiled(src, dst, c, inH, inW, outH, outW, spec.Kernel)
		return out, nil
	}

	for ch := 0; ch < c; ch++ {
		sBase := ch * inH * inW
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*spec.Stride - spec.Pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*spec.Stride - spec.Pad
				acc := float32(math.Inf(-1))
				n := 0
				for ky := 0; ky < spec.Kernel; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= inH {
						continue
					}
					for kx := 0; kx < spec.Kernel; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= inW {
							continue
						}
						acc = max(acc, src[sBase+iy*inW+ix])
						n++
					}
				}
				if n == 0 {
					acc = 0 // the window lies entirely in the padding
				}
				dst[(ch*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out, nil
}

// maxPoolTiled is max pooling with an unpadded window that tiles the input
// (kernel == stride): every window lies inside the input, so there is
// nothing to clip or count. An output row is k input rows folded elementwise
// into one, then that row folded k columns at a time — plain loops over
// contiguous rows, with the builtin max, which compiles without a
// data-dependent branch: activations are not predictable.
func maxPoolTiled(src, dst []float32, c, inH, inW, outH, outW, k int) {
	w := outW * k
	fold := getSlab(w)
	defer putSlab(fold)
	for ch := 0; ch < c; ch++ {
		plane := src[ch*inH*inW : (ch+1)*inH*inW]
		for oy := 0; oy < outH; oy++ {
			rows := plane[oy*k*inW:]
			copy(fold, rows[:w])
			for ky := 1; ky < k; ky++ {
				for i, v := range rows[ky*inW:][:w] {
					fold[i] = max(fold[i], v)
				}
			}
			drow := dst[(ch*outH+oy)*outW:][:outW]
			for ox := range drow {
				drow[ox] = fold[ox*k]
			}
			for kx := 1; kx < k; kx++ {
				for ox := range drow {
					drow[ox] = max(drow[ox], fold[ox*k+kx])
				}
			}
		}
	}
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

// GridMaxPool reduces a CHW feature map to a (C, grid, grid) tensor using max
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
	if len(s) != 3 {
		return nil, fmt.Errorf("%w: GridMaxPool expects CHW, got %v", ErrShape, s)
	}
	if grid <= 0 {
		return nil, fmt.Errorf("%w: GridMaxPool grid %d", ErrShape, grid)
	}
	if s[1] <= grid && s[2] <= grid {
		// Already at or below target resolution; nothing to reduce. Copy so
		// the caller owns its result and cannot mutate the source map.
		out := newUninit(s...)
		copy(out.Data(), in.Data())
		return out, nil
	}
	kh, sh, outH := gridAxis(s[1], grid)
	kw, sw, outW := gridAxis(s[2], grid)
	c, inH, inW := s[0], s[1], s[2]
	out := newUninit(c, outH, outW)
	src, dst := in.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
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

// ConcatChannels concatenates CHW tensors along the channel dimension; all
// inputs must share spatial dimensions. It is the primitive behind
// DAG-structured CNN blocks (DenseNet-style concatenation).
func ConcatChannels(ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("%w: concat of no tensors", ErrShape)
	}
	first := ts[0].Shape()
	if len(first) != 3 {
		return nil, fmt.Errorf("%w: concat expects CHW, got %v", ErrShape, first)
	}
	h, w := first[1], first[2]
	totalC := 0
	for _, t := range ts {
		s := t.Shape()
		if len(s) != 3 || s[1] != h || s[2] != w {
			return nil, fmt.Errorf("%w: concat spatial mismatch %v vs (%d,%d)", ErrShape, s, h, w)
		}
		totalC += s[0]
	}
	out := newUninit(totalC, h, w) // the copies below cover every element
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

// AddInPlace adds b into a elementwise (a += b); shapes must match.
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

// BatchNorm applies per-channel batch normalization to a CHW tensor in place.
// All parameter slices must have length C. Convolution layers fold the same
// affine into the kernel's epilogue (Conv2DFused) instead of making this pass.
func BatchNorm(t *Tensor, gamma, beta, mean, variance []float32, eps float32) error {
	s := t.Shape()
	if len(s) != 3 {
		return fmt.Errorf("%w: batchnorm expects CHW, got %v", ErrShape, s)
	}
	c, hw := s[0], s[1]*s[2]
	if len(gamma) != c {
		return fmt.Errorf("%w: batchnorm params for %d channels", ErrShape, c)
	}
	scale, shift, err := BatchNormAffine(gamma, beta, mean, variance, eps)
	if err != nil {
		return err
	}
	d := t.Data()
	for ch := 0; ch < c; ch++ {
		sc, sh := scale[ch], shift[ch]
		plane := d[ch*hw : (ch+1)*hw]
		for i, v := range plane {
			plane[i] = v*sc + sh
		}
	}
	return nil
}

// GlobalAvgPool reduces a CHW tensor to a length-C vector by averaging each
// channel's spatial plane.
func GlobalAvgPool(in *Tensor) (*Tensor, error) {
	s := in.Shape()
	if len(s) != 3 {
		return nil, fmt.Errorf("%w: GlobalAvgPool expects CHW, got %v", ErrShape, s)
	}
	c, hw := s[0], s[1]*s[2]
	out := New(c)
	src, dst := in.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		var sum float32
		base := ch * hw
		for i := 0; i < hw; i++ {
			sum += src[base+i]
		}
		dst[ch] = sum / float32(hw)
	}
	return out, nil
}
