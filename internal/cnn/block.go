package cnn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Bottleneck is a ResNet bottleneck residual block: a 1×1 reduce, 3×3, and
// 1×1 expand BN-conv chain with an identity or 1×1-projection shortcut,
// followed by an elementwise add and ReLU (He et al., CVPR 2016), both of
// which run in the expand convolution's epilogue. The paper
// models ResNet50 as a chain of such blocks ("it is easy to extend our
// definitions to DAG-structured CNNs", Definition 3.4, footnote 1); treating
// each block as one composite Layer keeps the model a chain while preserving
// the internal DAG.
type Bottleneck struct {
	LayerName string
	// Mid is the bottleneck width (channels of the 3×3 conv); the block's
	// output has 4×Mid channels.
	Mid int
	// Stride applies to the 3×3 conv (and projection shortcut, if any).
	Stride int
	// Project forces a 1×1 projection shortcut; it is also used
	// automatically when input channels != 4*Mid or Stride != 1.
	Project bool
}

// Name implements Layer.
func (b *Bottleneck) Name() string { return b.LayerName }

func (b *Bottleneck) needsProjection(in tensor.Shape) bool {
	return b.Project || b.Stride != 1 || in[0] != 4*b.Mid
}

// sublayers returns the block's internal layers for the given input shape (a
// CHW image or a (C, N, H, W) batch): reduce, mid, expand, and (optionally)
// the projection shortcut last.
func (b *Bottleneck) sublayers(in tensor.Shape) ([]*BNConv, error) {
	if len(in) != 3 && len(in) != 4 {
		return nil, fmt.Errorf("%w: bottleneck %s expects CHW or CNHW, got %v", tensor.ErrShape, b.LayerName, in)
	}
	inC := in[0]
	ls := []*BNConv{
		&BNConv{LayerName: b.LayerName + ".reduce", ReLU: true,
			Spec: tensor.Conv2DSpec{InChannels: inC, OutChannels: b.Mid, Kernel: 1, Stride: 1}},
		&BNConv{LayerName: b.LayerName + ".mid", ReLU: true,
			Spec: tensor.Conv2DSpec{InChannels: b.Mid, OutChannels: b.Mid, Kernel: 3, Stride: b.Stride, Pad: 1}},
		&BNConv{LayerName: b.LayerName + ".expand", ReLU: false,
			Spec: tensor.Conv2DSpec{InChannels: b.Mid, OutChannels: 4 * b.Mid, Kernel: 1, Stride: 1}},
	}
	if b.needsProjection(in) {
		ls = append(ls, &BNConv{LayerName: b.LayerName + ".proj", ReLU: false,
			Spec: tensor.Conv2DSpec{InChannels: inC, OutChannels: 4 * b.Mid, Kernel: 1, Stride: b.Stride}})
	}
	return ls, nil
}

// OutShape implements Layer.
func (b *Bottleneck) OutShape(in tensor.Shape) (tensor.Shape, error) {
	ls, err := b.sublayers(in)
	if err != nil {
		return nil, err
	}
	s := in
	for _, l := range ls[:3] {
		if s, err = l.OutShape(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// FLOPs implements Layer: sublayer FLOPs plus the residual add and final ReLU.
func (b *Bottleneck) FLOPs(in tensor.Shape) int64 {
	ls, err := b.sublayers(in)
	if err != nil {
		return 0
	}
	var total int64
	s := in
	for i, l := range ls {
		shapeIn := s
		if i == 3 { // projection runs on the block input
			shapeIn = in
		}
		total += l.FLOPs(shapeIn)
		if i < 3 {
			next, err := l.OutShape(s)
			if err != nil {
				return 0
			}
			s = next
		}
	}
	// Residual add + ReLU: 2 ops per output element.
	total += 2 * int64(s.NumElements())
	return total
}

// Params implements Layer.
func (b *Bottleneck) Params(in tensor.Shape) int64 {
	ls, err := b.sublayers(in)
	if err != nil {
		return 0
	}
	var total int64
	s := in
	for i, l := range ls {
		shapeIn := s
		if i == 3 {
			shapeIn = in
		}
		total += l.Params(shapeIn)
		if i < 3 {
			next, err := l.OutShape(s)
			if err != nil {
				return 0
			}
			s = next
		}
	}
	return total
}

// Apply implements Layer. The shortcut runs first, so the expand
// convolution can add it and apply the block's ReLU in its epilogue: the
// block is its three or four convolutions and no elementwise pass, and the
// shortcut is in the expand output's batch layout either way. Each
// intermediate goes back to the slab pool once the next convolution has read
// it; the block input is the caller's.
func (b *Bottleneck) Apply(in *tensor.Tensor, w *LayerWeights) (*tensor.Tensor, error) {
	ls, err := b.sublayers(in.Shape())
	if err != nil {
		return nil, err
	}
	if len(w.Sub) != len(ls) {
		return nil, fmt.Errorf("cnn: bottleneck %s: %d weight sets for %d sublayers",
			b.LayerName, len(w.Sub), len(ls))
	}
	shortcut := in
	if len(ls) == 4 {
		if shortcut, err = ls[3].Apply(in, w.Sub[3]); err != nil {
			return nil, err
		}
		defer tensor.Recycle(shortcut)
	}
	reduced, err := ls[0].Apply(in, w.Sub[0])
	if err != nil {
		return nil, err
	}
	mid, err := ls[1].Apply(reduced, w.Sub[1])
	tensor.Recycle(reduced)
	if err != nil {
		return nil, err
	}
	defer tensor.Recycle(mid)
	return ls[2].apply(mid, w.Sub[2], shortcut.Data(), true)
}

// residualBranchGain scales the expand convolution's batch-norm gain at
// initialization. Keeping the residual branch small (SkipInit/Fixup style)
// makes a randomly initialized deep residual network near-identity, so its
// activations neither blow up nor wash out the input signal — essential for
// feature transfer from seeded-random weights.
const residualBranchGain = 0.25

// InitWeights implements Layer.
func (b *Bottleneck) InitWeights(in tensor.Shape, rng *rand.Rand) (*LayerWeights, error) {
	ls, err := b.sublayers(in)
	if err != nil {
		return nil, err
	}
	w := &LayerWeights{Sub: make([]*LayerWeights, len(ls))}
	s := in
	for i, l := range ls {
		shapeIn := s
		if i == 3 {
			shapeIn = in
		}
		sw, err := l.InitWeights(shapeIn, rng)
		if err != nil {
			return nil, err
		}
		w.Sub[i] = sw
		if i < 3 {
			if s, err = l.OutShape(s); err != nil {
				return nil, err
			}
		}
	}
	for i := range w.Sub[2].Gamma {
		w.Sub[2].Gamma[i] = residualBranchGain
	}
	return w, nil
}
