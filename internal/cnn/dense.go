package cnn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// DenseBlock is a DenseNet-style densely connected block (Huang et al.,
// 2016): each internal convolution consumes the channel-concatenation of the
// block input and every previous convolution's output, and the block emits
// the full concatenation. The paper cites DenseNet as the canonical
// DAG-structured CNN its chain formalism extends to (Definition 3.4,
// footnote 1) and leaves support to future work (Section 5.4); modeling the
// block as one composite Layer keeps the model a chain of TensorOps while
// the DAG lives inside — exactly like Bottleneck.
type DenseBlock struct {
	LayerName string
	// Convs is the number of internal 3×3 convolutions.
	Convs int
	// Growth is the number of channels each convolution adds.
	Growth int
}

// Name implements Layer.
func (d *DenseBlock) Name() string { return d.LayerName }

// convs returns the internal convolution layers for the given input shape.
func (d *DenseBlock) convs(in tensor.Shape) ([]*BNConv, error) {
	if len(in) != 3 && len(in) != 4 {
		return nil, fmt.Errorf("%w: dense block %s expects CHW or CNHW, got %v", tensor.ErrShape, d.LayerName, in)
	}
	if d.Convs <= 0 || d.Growth <= 0 {
		return nil, fmt.Errorf("cnn: dense block %s needs positive convs/growth", d.LayerName)
	}
	out := make([]*BNConv, d.Convs)
	c := in[0]
	for i := range out {
		out[i] = &BNConv{
			LayerName: fmt.Sprintf("%s.conv%d", d.LayerName, i+1),
			ReLU:      true,
			Spec:      tensor.Conv2DSpec{InChannels: c, OutChannels: d.Growth, Kernel: 3, Stride: 1, Pad: 1},
		}
		c += d.Growth
	}
	return out, nil
}

// OutShape implements Layer: input channels plus Convs × Growth.
func (d *DenseBlock) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if _, err := d.convs(in); err != nil {
		return nil, err
	}
	return tensor.Shape{in[0] + d.Convs*d.Growth, in[1], in[2]}, nil
}

// FLOPs implements Layer.
func (d *DenseBlock) FLOPs(in tensor.Shape) int64 {
	convs, err := d.convs(in)
	if err != nil {
		return 0
	}
	var total int64
	s := in.Clone()
	for _, c := range convs {
		total += c.FLOPs(s)
		s[0] += d.Growth // next conv sees the concatenation
	}
	return total
}

// Params implements Layer.
func (d *DenseBlock) Params(in tensor.Shape) int64 {
	convs, err := d.convs(in)
	if err != nil {
		return 0
	}
	var total int64
	for _, c := range convs {
		total += c.Params(nil)
	}
	return total
}

// Apply implements Layer.
func (d *DenseBlock) Apply(in *tensor.Tensor, w *LayerWeights) (*tensor.Tensor, error) {
	convs, err := d.convs(in.Shape())
	if err != nil {
		return nil, err
	}
	if len(w.Sub) != len(convs) {
		return nil, fmt.Errorf("cnn: dense block %s: %d weight sets for %d convs",
			d.LayerName, len(w.Sub), len(convs))
	}
	acc := in
	for i, c := range convs {
		grown, err := c.Apply(acc, w.Sub[i])
		if err != nil {
			return nil, err
		}
		wider, err := tensor.ConcatChannels(acc, grown)
		if err != nil {
			return nil, fmt.Errorf("cnn: dense block %s: %w", d.LayerName, err)
		}
		// Both halves now live on in the concatenation; their slabs go back
		// to the pool (never the caller's input).
		tensor.Recycle(grown)
		if acc != in {
			tensor.Recycle(acc)
		}
		acc = wider
	}
	return acc, nil
}

// InitWeights implements Layer.
func (d *DenseBlock) InitWeights(in tensor.Shape, rng *rand.Rand) (*LayerWeights, error) {
	convs, err := d.convs(in)
	if err != nil {
		return nil, err
	}
	w := &LayerWeights{Sub: make([]*LayerWeights, len(convs))}
	s := in.Clone()
	for i, c := range convs {
		sw, err := c.InitWeights(s, rng)
		if err != nil {
			return nil, err
		}
		w.Sub[i] = sw
		s[0] += d.Growth
	}
	return w, nil
}

// TinyDenseNet returns an executable DenseNet-style model on 64×64 inputs:
// a stem convolution, two dense blocks separated by a 1×1-conv + pool
// transition, global average pooling, and a classifier head. It demonstrates
// that the roster, the Staged plan, and the optimizer extend to
// DAG-structured CNNs unchanged — the paper's Section 5.4 future-work item.
func TinyDenseNet() *Model {
	layers := []Layer{
		&BNConv{LayerName: "stem", ReLU: true,
			Spec: tensor.Conv2DSpec{InChannels: 3, OutChannels: 16, Kernel: 5, Stride: 2, Pad: 2}}, // 32×32×16
		&MaxPool{LayerName: "pool1", Spec: tensor.PoolSpec{Kernel: 2, Stride: 2}}, // 16×16×16
		&DenseBlock{LayerName: "dense1", Convs: 3, Growth: 8},                     // 16×16×40
		&BNConv{LayerName: "trans1", ReLU: true,
			Spec: tensor.Conv2DSpec{InChannels: 40, OutChannels: 24, Kernel: 1, Stride: 1}},
		&MaxPool{LayerName: "pool2", Spec: tensor.PoolSpec{Kernel: 2, Stride: 2}}, // 8×8×24
		&DenseBlock{LayerName: "dense2", Convs: 3, Growth: 8},                     // 8×8×48
		&GlobalAvgPool{LayerName: "gap"},                                          // 48
		&FC{LayerName: "fc", Units: 32},
	}
	return &Model{
		Name:       "tiny-densenet",
		InputShape: tensor.Shape{3, TinyInputSize, TinyInputSize},
		Layers:     layers,
		FeatureLayers: []FeatureLayer{
			{Name: "dense1", LayerIndex: 2},
			{Name: "dense2", LayerIndex: 5},
			{Name: "gap", LayerIndex: 6},
		},
	}
}
