package cnn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is a TensorOp (Definition 3.3): a function from a tensor of a fixed
// shape to a tensor of a (potentially different) fixed shape. Layers also
// report the metadata Vista's optimizer needs: output shape, floating-point
// operation count, and parameter count, all as functions of the input shape.
type Layer interface {
	// Name identifies the layer within its model (e.g. "conv5", "fc6").
	Name() string
	// OutShape returns the output shape for the given input shape, or an
	// error if the input is not shape-compatible (Definition 3.3).
	OutShape(in tensor.Shape) (tensor.Shape, error)
	// FLOPs returns the number of floating-point operations one forward
	// application performs on an input of the given shape.
	FLOPs(in tensor.Shape) int64
	// Params returns the number of learned parameters (weights + biases)
	// for an input of the given shape.
	Params(in tensor.Shape) int64
	// Apply runs the layer on in using the realized weights w. in is one
	// input or a batch of them (tensor.NewBatch), and the output is of the
	// same kind: item i of the output is the layer applied to item i.
	Apply(in *tensor.Tensor, w *LayerWeights) (*tensor.Tensor, error)
	// InitWeights draws the layer's weights for the given input shape from
	// rng (He initialization for weights, zeros for biases).
	InitWeights(in tensor.Shape, rng *rand.Rand) (*LayerWeights, error)
}

// LayerWeights holds one layer's realized parameters. Composite layers (e.g.
// ResNet bottleneck blocks) store their sublayers' weights in Sub.
type LayerWeights struct {
	W, B                   []float32
	Gamma, Beta, Mean, Var []float32
	Sub                    []*LayerWeights
}

// SizeBytes returns the in-memory payload of the weights (4 B per float32),
// including sublayers.
func (w *LayerWeights) SizeBytes() int64 {
	if w == nil {
		return 0
	}
	n := int64(len(w.W)+len(w.B)+len(w.Gamma)+len(w.Beta)+len(w.Mean)+len(w.Var)) * 4
	for _, s := range w.Sub {
		n += s.SizeBytes()
	}
	return n
}

// heInit fills dst with He-initialized values: N(0, sqrt(2/fanIn)).
func heInit(dst []float32, fanIn int, rng *rand.Rand) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range dst {
		dst[i] = float32(rng.NormFloat64() * std)
	}
}

// Conv is a convolutional layer with optional fused ReLU.
type Conv struct {
	LayerName string
	Spec      tensor.Conv2DSpec
	ReLU      bool
}

// Name implements Layer.
func (c *Conv) Name() string { return c.LayerName }

// OutShape implements Layer.
func (c *Conv) OutShape(in tensor.Shape) (tensor.Shape, error) { return c.Spec.OutShape(in) }

// FLOPs implements Layer: 2·K²·Cin multiply-adds per output element.
func (c *Conv) FLOPs(in tensor.Shape) int64 {
	out, err := c.Spec.OutShape(in)
	if err != nil {
		return 0
	}
	perOut := int64(2 * c.Spec.Kernel * c.Spec.Kernel * c.Spec.InChannels)
	return perOut * int64(out.NumElements())
}

// Params implements Layer.
func (c *Conv) Params(tensor.Shape) int64 {
	return int64(c.Spec.WeightCount() + c.Spec.OutChannels)
}

// Apply implements Layer. Bias and ReLU are applied in the convolution
// kernel's output step, not as passes over the result.
func (c *Conv) Apply(in *tensor.Tensor, w *LayerWeights) (*tensor.Tensor, error) {
	out, err := tensor.Conv2DFused(in, c.Spec, w.W, w.B, tensor.Epilogue{ReLU: c.ReLU})
	if err != nil {
		return nil, fmt.Errorf("cnn: layer %s: %w", c.LayerName, err)
	}
	return out, nil
}

// InitWeights implements Layer.
func (c *Conv) InitWeights(in tensor.Shape, rng *rand.Rand) (*LayerWeights, error) {
	if _, err := c.Spec.OutShape(in); err != nil {
		return nil, err
	}
	w := &LayerWeights{
		W: make([]float32, c.Spec.WeightCount()),
		B: make([]float32, c.Spec.OutChannels),
	}
	heInit(w.W, c.Spec.InChannels*c.Spec.Kernel*c.Spec.Kernel, rng)
	return w, nil
}

// MaxPool is a max-pooling layer.
type MaxPool struct {
	LayerName string
	Spec      tensor.PoolSpec
}

// Name implements Layer.
func (p *MaxPool) Name() string { return p.LayerName }

// OutShape implements Layer.
func (p *MaxPool) OutShape(in tensor.Shape) (tensor.Shape, error) { return p.Spec.OutShape(in) }

// FLOPs implements Layer: one comparison per window element.
func (p *MaxPool) FLOPs(in tensor.Shape) int64 {
	out, err := p.Spec.OutShape(in)
	if err != nil {
		return 0
	}
	return int64(p.Spec.Kernel*p.Spec.Kernel) * int64(out.NumElements())
}

// Params implements Layer.
func (p *MaxPool) Params(tensor.Shape) int64 { return 0 }

// Apply implements Layer.
func (p *MaxPool) Apply(in *tensor.Tensor, _ *LayerWeights) (*tensor.Tensor, error) {
	out, err := tensor.MaxPool2D(in, p.Spec)
	if err != nil {
		return nil, fmt.Errorf("cnn: layer %s: %w", p.LayerName, err)
	}
	return out, nil
}

// InitWeights implements Layer (pooling has no parameters).
func (p *MaxPool) InitWeights(in tensor.Shape, _ *rand.Rand) (*LayerWeights, error) {
	if _, err := p.Spec.OutShape(in); err != nil {
		return nil, err
	}
	return &LayerWeights{}, nil
}

// GlobalAvgPool reduces a CHW input to a length-C vector (ResNet-style head),
// and a batch of them to an (N, C) batch of vectors.
type GlobalAvgPool struct {
	LayerName string
}

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.LayerName }

// OutShape implements Layer.
func (g *GlobalAvgPool) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("%w: global avg pool expects CHW, got %v", tensor.ErrShape, in)
	}
	return tensor.Shape{in[0]}, nil
}

// FLOPs implements Layer.
func (g *GlobalAvgPool) FLOPs(in tensor.Shape) int64 { return int64(in.NumElements()) }

// Params implements Layer.
func (g *GlobalAvgPool) Params(tensor.Shape) int64 { return 0 }

// Apply implements Layer.
func (g *GlobalAvgPool) Apply(in *tensor.Tensor, _ *LayerWeights) (*tensor.Tensor, error) {
	return tensor.GlobalAvgPool(in)
}

// InitWeights implements Layer.
func (g *GlobalAvgPool) InitWeights(in tensor.Shape, _ *rand.Rand) (*LayerWeights, error) {
	if _, err := g.OutShape(in); err != nil {
		return nil, err
	}
	return &LayerWeights{}, nil
}

// FC is a fully connected layer; it flattens its input and applies
// out = W·flatten(in) + b, with optional fused ReLU. A batch runs item by
// item through MatVec: FC layers are a small share of a row.
type FC struct {
	LayerName string
	Units     int
	ReLU      bool
}

// Name implements Layer.
func (f *FC) Name() string { return f.LayerName }

// OutShape implements Layer.
func (f *FC) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if !in.Valid() {
		return nil, fmt.Errorf("%w: fc input %v", tensor.ErrShape, in)
	}
	return tensor.Shape{f.Units}, nil
}

// FLOPs implements Layer: 2 ops per weight.
func (f *FC) FLOPs(in tensor.Shape) int64 {
	return 2 * int64(in.NumElements()) * int64(f.Units)
}

// Params implements Layer.
func (f *FC) Params(in tensor.Shape) int64 {
	return int64(in.NumElements())*int64(f.Units) + int64(f.Units)
}

// Apply implements Layer.
func (f *FC) Apply(in *tensor.Tensor, w *LayerWeights) (*tensor.Tensor, error) {
	t := tensor.New(tensor.BatchLike(in.Shape(), tensor.Shape{f.Units})...)
	for i := 0; i < tensor.BatchLen(in.Shape()); i++ {
		x := tensor.Item(in, i)
		out, err := tensor.MatVec(w.W, f.Units, x.NumElements(), x.Data(), w.B)
		tensor.Recycle(x)
		if err != nil {
			return nil, fmt.Errorf("cnn: layer %s: %w", f.LayerName, err)
		}
		copy(t.Data()[i*f.Units:], out)
	}
	if f.ReLU {
		tensor.ReLU(t)
	}
	return t, nil
}

// InitWeights implements Layer.
func (f *FC) InitWeights(in tensor.Shape, rng *rand.Rand) (*LayerWeights, error) {
	cols := in.NumElements()
	w := &LayerWeights{
		W: make([]float32, f.Units*cols),
		B: make([]float32, f.Units),
	}
	heInit(w.W, cols, rng)
	return w, nil
}

// BNConv is a convolution followed by batch normalization with optional fused
// ReLU; the building block of ResNet architectures.
type BNConv struct {
	LayerName string
	Spec      tensor.Conv2DSpec
	ReLU      bool
}

// Name implements Layer.
func (c *BNConv) Name() string { return c.LayerName }

// OutShape implements Layer.
func (c *BNConv) OutShape(in tensor.Shape) (tensor.Shape, error) { return c.Spec.OutShape(in) }

// FLOPs implements Layer: conv FLOPs plus 2 ops per output element for the
// batch-norm affine transform.
func (c *BNConv) FLOPs(in tensor.Shape) int64 {
	out, err := c.Spec.OutShape(in)
	if err != nil {
		return 0
	}
	perOut := int64(2 * c.Spec.Kernel * c.Spec.Kernel * c.Spec.InChannels)
	return (perOut + 2) * int64(out.NumElements())
}

// Params implements Layer: filter weights plus 4 batch-norm vectors (no conv
// bias; the BN shift subsumes it, as in the reference ResNet).
func (c *BNConv) Params(tensor.Shape) int64 {
	return int64(c.Spec.WeightCount() + 4*c.Spec.OutChannels)
}

// bnEps is the variance floor of the roster's batch normalization.
const bnEps = 1e-5

// Apply implements Layer. The batch-norm statistics are folded into one
// per-channel affine per application, and the convolution kernel applies it
// (and the ReLU) in its output step, not as passes over the result.
func (c *BNConv) Apply(in *tensor.Tensor, w *LayerWeights) (*tensor.Tensor, error) {
	return c.apply(in, w, nil, c.ReLU)
}

// apply is Apply with the epilogue's residual operand (nil for none) and
// ReLU given by the caller: a bottleneck's expand convolution adds the
// block's shortcut and applies the block's ReLU after it.
func (c *BNConv) apply(in *tensor.Tensor, w *LayerWeights, residual []float32, relu bool) (*tensor.Tensor, error) {
	scale, shift, err := tensor.BatchNormAffine(w.Gamma, w.Beta, w.Mean, w.Var, bnEps)
	if err != nil {
		return nil, fmt.Errorf("cnn: layer %s: %w", c.LayerName, err)
	}
	out, err := tensor.Conv2DFused(in, c.Spec, w.W, w.B, tensor.Epilogue{Scale: scale, Shift: shift, Residual: residual, ReLU: relu})
	if err != nil {
		return nil, fmt.Errorf("cnn: layer %s: %w", c.LayerName, err)
	}
	return out, nil
}

// InitWeights implements Layer.
func (c *BNConv) InitWeights(in tensor.Shape, rng *rand.Rand) (*LayerWeights, error) {
	if _, err := c.Spec.OutShape(in); err != nil {
		return nil, err
	}
	oc := c.Spec.OutChannels
	w := &LayerWeights{
		W:     make([]float32, c.Spec.WeightCount()),
		B:     make([]float32, oc), // zero bias; BN shift handles offsets
		Gamma: make([]float32, oc),
		Beta:  make([]float32, oc),
		Mean:  make([]float32, oc),
		Var:   make([]float32, oc),
	}
	heInit(w.W, c.Spec.InChannels*c.Spec.Kernel*c.Spec.Kernel, rng)
	for i := 0; i < oc; i++ {
		w.Gamma[i] = 1
		w.Var[i] = 1
	}
	return w, nil
}
