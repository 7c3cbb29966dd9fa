package cnn

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// FeatureGrid is the spatial grid convolutional feature layers are max-pooled
// down to before flattening (Section 5, footnote 4: "reduce the feature
// tensor to a 2x2 grid of the same depth").
const FeatureGrid = 2

// FeatureLayer marks one transfer point in a model: the output of
// Layers[LayerIndex] is a feature layer users may transfer.
type FeatureLayer struct {
	// Name is the layer label used in the paper (e.g. "conv5", "fc7").
	Name string
	// LayerIndex is the index into Model.Layers whose output is this
	// feature layer.
	LayerIndex int
}

// Model is a CNN per Definition 3.4: a chain of TensorOps f(·) ≡
// f_nl(...f_2(f_1(·))...), plus the model's roster metadata — its input shape
// and its transferable feature layers ordered bottom-to-top.
type Model struct {
	// Name is the roster name, e.g. "resnet50".
	Name string
	// InputShape is the CHW image-tensor shape the model expects.
	InputShape tensor.Shape
	// Layers is the layer chain, input to output.
	Layers []Layer
	// FeatureLayers lists the transferable layers bottom-to-top; the
	// paper's set L is a suffix of this list (the |L| top-most entries).
	FeatureLayers []FeatureLayer

	// entry is the roster entry ByName built the model from (nil for a
	// model built any other way); ComputeStats reads its memoized Stats.
	entry *rosterEntry
}

// ErrNoSuchLayer indicates a feature-layer lookup failure.
var ErrNoSuchLayer = errors.New("cnn: no such feature layer")

// NumLayers returns nl, the number of layers in the chain.
func (m *Model) NumLayers() int { return len(m.Layers) }

// ShapeAt returns the output shape of Layers[idx] (idx == -1 returns the
// input shape). It walks the chain from the input, validating compatibility.
func (m *Model) ShapeAt(idx int) (tensor.Shape, error) {
	if idx < -1 || idx >= len(m.Layers) {
		return nil, fmt.Errorf("cnn: layer index %d out of range [−1,%d)", idx, len(m.Layers))
	}
	s := m.InputShape
	for i := 0; i <= idx; i++ {
		next, err := m.Layers[i].OutShape(s)
		if err != nil {
			return nil, fmt.Errorf("cnn: %s layer %d (%s): %w", m.Name, i, m.Layers[i].Name(), err)
		}
		s = next
	}
	return s, nil
}

// TotalParams returns the model's total parameter count, derived by walking
// the layer chain.
func (m *Model) TotalParams() (int64, error) {
	var total int64
	s := m.InputShape
	for i, l := range m.Layers {
		total += l.Params(s)
		next, err := l.OutShape(s)
		if err != nil {
			return 0, fmt.Errorf("cnn: %s layer %d (%s): %w", m.Name, i, l.Name(), err)
		}
		s = next
	}
	return total, nil
}

// TotalFLOPs returns the FLOPs of one full inference f(t).
func (m *Model) TotalFLOPs() (int64, error) {
	return m.PartialFLOPs(0, len(m.Layers)-1)
}

// PartialFLOPs returns the FLOPs of partial inference f̂_{from→to}
// (inclusive layer range, Definition 3.7).
func (m *Model) PartialFLOPs(from, to int) (int64, error) {
	if from < 0 || to >= len(m.Layers) || from > to {
		return 0, fmt.Errorf("cnn: invalid layer range [%d,%d] for %s", from, to, m.Name)
	}
	s, err := m.ShapeAt(from - 1)
	if err != nil {
		return 0, err
	}
	var total int64
	for i := from; i <= to; i++ {
		total += m.Layers[i].FLOPs(s)
		if s, err = m.Layers[i].OutShape(s); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// Weights holds a model's realized parameters, one entry per layer.
type Weights struct {
	Layers []*LayerWeights
}

// MaxRealizableParams guards against accidentally materializing a full-scale
// model's weights in-process (e.g. VGG16's 138 M parameters). Roster models
// above this limit serve only as sources of shape/FLOP/footprint statistics;
// their Tiny* counterparts are used for real execution.
const MaxRealizableParams = 64 << 20

// RealizeWeights draws deterministic pseudo-random weights for every layer.
// The per-layer RNG is seeded from (seed, layer index), so any contiguous
// partial realization is consistent with the full one, and the layers are
// independent draws: once the shape chain is known they are drawn on
// min(GOMAXPROCS, layers) goroutines, largest first, with the same values
// as one after another.
func (m *Model) RealizeWeights(seed int64) (*Weights, error) {
	in := make([]tensor.Shape, len(m.Layers))
	params := make([]int64, len(m.Layers))
	order := make([]int, len(m.Layers))
	var total int64
	s := m.InputShape
	for i, l := range m.Layers {
		in[i], params[i], order[i] = s, l.Params(s), i
		total += params[i]
		out, err := l.OutShape(s)
		if err != nil {
			return nil, fmt.Errorf("cnn: %s layer %d (%s): %w", m.Name, i, l.Name(), err)
		}
		s = out
	}
	if total > MaxRealizableParams {
		return nil, fmt.Errorf("cnn: model %s has %d parameters, above the realization limit %d; use its Tiny variant for real execution",
			m.Name, total, int64(MaxRealizableParams))
	}
	// Largest first, so that no big layer is left to start last.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(params[b], params[a]) })
	w := &Weights{Layers: make([]*LayerWeights, len(m.Layers))}
	errs := make([]error, len(m.Layers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), len(m.Layers)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(order); k = int(next.Add(1) - 1) {
				i := order[k]
				rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
				w.Layers[i], errs[i] = m.Layers[i].InitWeights(in[i], rng)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cnn: %s layer %d (%s): %w", m.Name, i, m.Layers[i].Name(), err)
		}
	}
	return w, nil
}

// PartialInfer computes partial CNN inference f̂_{from→to} (Definition 3.7),
// which from the first layer to the last is full inference f(t) (Definition
// 3.6): it applies Layers[from..to] (inclusive) to in, which must be
// shape-compatible with Layers[from]. in is one input or a batch of them
// (tensor.NewBatch); every layer runs once over the whole batch, each
// convolution as one GEMM, and item i of the result is bit for bit item i
// inferred alone.
//
// Intermediate activations are recycled into the tensor slab pool as soon as
// the next layer has consumed them, so batches advancing through the same
// layer range reuse a fixed working set instead of allocating one tensor per
// layer per batch. The function input and the returned tensor are never
// recycled, and an intermediate is kept whenever the next layer's output
// aliases its storage (in-place layers).
func (m *Model) PartialInfer(w *Weights, in *tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	if from < 0 || to >= len(m.Layers) || from > to {
		return nil, fmt.Errorf("cnn: invalid layer range [%d,%d] for %s", from, to, m.Name)
	}
	if w == nil || len(w.Layers) != len(m.Layers) {
		return nil, fmt.Errorf("cnn: weights not realized for model %s", m.Name)
	}
	t := in
	for i := from; i <= to; i++ {
		next, err := m.Layers[i].Apply(t, w.Layers[i])
		if err != nil {
			return nil, err
		}
		if t != in && !tensor.SameStorage(next, t) {
			tensor.Recycle(t)
		}
		t = next
	}
	return t, nil
}

// FeatureVectors applies g_l ∘ f̂_l to a raw feature tensor, or a batch of
// them, produced at one feature layer, and returns each item's vector:
// convolutional (CHW) outputs are grid-max-pooled to a
// FeatureGrid×FeatureGrid grid and flattened; vector outputs pass through.
// This is the paper's g_l FlattenOp with the standard pre-pooling. Every
// vector is a copy, owned by its caller; raw is left as it was.
func FeatureVectors(raw *tensor.Tensor) ([]*tensor.Tensor, error) {
	pooled := raw
	if len(tensor.ItemShape(raw.Shape())) == 3 {
		var err error
		if pooled, err = tensor.GridMaxPool(raw, FeatureGrid); err != nil {
			return nil, err
		}
		defer tensor.Recycle(pooled)
	}
	vecs := make([]*tensor.Tensor, tensor.BatchLen(raw.Shape()))
	for i := range vecs {
		vecs[i] = tensor.Item(pooled, i).Flatten()
	}
	return vecs, nil
}

// FeatureDim returns the length of the flattened (post-pooling) feature
// vector for the given feature layer.
func (m *Model) FeatureDim(fl FeatureLayer) (int, error) {
	s, err := m.ShapeAt(fl.LayerIndex)
	if err != nil {
		return 0, err
	}
	if len(s) == 3 {
		s = tensor.GridPooledShape(s, FeatureGrid)
	}
	return s.NumElements(), nil
}
