package cnn

import (
	"fmt"
	"strings"
)

// Footprint multipliers converting parameter payload into the Table 1 model
// statistics. Serialized checkpoints carry ~1.1× the raw parameter payload
// (framework metadata); the in-memory runtime footprint of a DL system is
// substantially larger than the checkpoint — Section 4.1: "serialized file
// formats of CNNs ... often underestimate their in-memory footprints" — due
// to graph structures, per-thread activation buffers, and allocator slack.
// The multipliers below are calibrated so the roster footprints reproduce
// the paper's observed crash/feasibility boundaries on its 32 GB-node
// cluster and 12 GB GPU: VGG16 replicas (~5 GB each on CPU) force the
// optimizer down to cpu = 4 while AlexNet and ResNet50 sustain cpu = 7
// (Figure 11), and 5 GPU replicas of VGG16 exceed 12 GB (Figure 7A).
const (
	serializedOverhead = 1.1
	memMultiplier      = 10.1
	gpuMemMultiplier   = 5.0
)

// InferenceBatch is how many rows one inference UDF thread runs through the
// CNN at once (TensorFrames-style batching, Section 4.1): dl.PartitionFunc
// cuts a partition into near-equal batches of at most this many images, and
// the optimizer and the simulator price a decoded input batch of this many
// images in User Memory. The batch's activations are not priced apart:
// memMultiplier's |f|_mem already covers per-thread activation buffers.
const InferenceBatch = 8

// LayerStat describes one feature layer of a model for the optimizer.
type LayerStat struct {
	// Name is the feature-layer label (e.g. "conv5").
	Name string
	// LayerIndex is the index into Model.Layers.
	LayerIndex int
	// RawElems is the unpooled feature tensor's element count.
	RawElems int
	// RawBytes is the unpooled feature tensor payload (4 B per element).
	RawBytes int64
	// FeatureDim is the flattened post-pooling feature-vector length
	// |g_l(f̂_l(I))| used for downstream training and Equation 16.
	FeatureDim int
	// CumFLOPs is the cost of f̂_l from the raw image.
	CumFLOPs int64
}

// Stats aggregates the roster statistics Vista stores per model (Section 4.3:
// "Vista also looks up the CNN's serialized size |f|_ser, runtime memory
// footprint |f|_mem, and runtime GPU memory footprint |f|_mem_gpu from its
// roster").
type Stats struct {
	// ModelName is the roster name.
	ModelName string
	// Params is the total parameter count.
	Params int64
	// SerializedBytes is |f|_ser.
	SerializedBytes int64
	// MemBytes is |f|_mem, the per-replica runtime footprint.
	MemBytes int64
	// GPUMemBytes is |f|_mem_gpu.
	GPUMemBytes int64
	// TotalFLOPs is the cost of one full inference.
	TotalFLOPs int64
	// InputBytes is the image-tensor payload the model consumes.
	InputBytes int64
	// PeakActivationBytes is the largest single layer-output tensor during
	// inference (per image).
	PeakActivationBytes int64
	// ActivationWorkingBytes is the per-image activation working set an
	// inference thread holds: chain CNNs release each activation as soon
	// as the next is computed (residency 1), while residual architectures
	// keep shortcut tensors and branch buffers alive (residency 5,
	// matching observed DL-system peaks for ResNet-style graphs).
	ActivationWorkingBytes int64
	// FeatureLayers holds per-feature-layer statistics, bottom to top.
	FeatureLayers []LayerStat
}

// ComputeStats derives a model's roster statistics by walking its layer
// chain. Everything is computed from the architecture definition, so the
// optimizer's inputs are always consistent with the inference engine. A
// model from ByName walks its roster entry's chain once per process and
// every later call returns the same Stats, which callers must treat as
// read-only; any other model is walked on every call.
func ComputeStats(m *Model) (*Stats, error) {
	if e := m.entry; e != nil {
		e.statsOnce.Do(func() { e.stats, e.statsErr = walkStats(m) })
		return e.stats, e.statsErr
	}
	return walkStats(m)
}

// walkStats is ComputeStats without the roster memo.
func walkStats(m *Model) (*Stats, error) {
	params, err := m.TotalParams()
	if err != nil {
		return nil, err
	}
	total, err := m.TotalFLOPs()
	if err != nil {
		return nil, err
	}
	st := &Stats{
		ModelName:       m.Name,
		Params:          params,
		SerializedBytes: int64(float64(params*4) * serializedOverhead),
		MemBytes:        int64(float64(params*4) * memMultiplier),
		GPUMemBytes:     int64(float64(params*4) * gpuMemMultiplier),
		TotalFLOPs:      total,
		InputBytes:      int64(m.InputShape.NumElements()) * 4,
	}
	st.PeakActivationBytes = st.InputBytes
	residency := int64(1)
	s := m.InputShape
	for _, l := range m.Layers {
		if _, ok := l.(*Bottleneck); ok {
			residency = 5
		}
		next, err := l.OutShape(s)
		if err != nil {
			return nil, err
		}
		if b := int64(next.NumElements()) * 4; b > st.PeakActivationBytes {
			st.PeakActivationBytes = b
		}
		s = next
	}
	st.ActivationWorkingBytes = residency * st.PeakActivationBytes

	for _, fl := range m.FeatureLayers {
		raw, err := m.ShapeAt(fl.LayerIndex)
		if err != nil {
			return nil, err
		}
		dim, err := m.FeatureDim(fl)
		if err != nil {
			return nil, err
		}
		cum, err := m.PartialFLOPs(0, fl.LayerIndex)
		if err != nil {
			return nil, err
		}
		st.FeatureLayers = append(st.FeatureLayers, LayerStat{
			Name:       fl.Name,
			LayerIndex: fl.LayerIndex,
			RawElems:   raw.NumElements(),
			RawBytes:   int64(raw.NumElements()) * 4,
			FeatureDim: dim,
			CumFLOPs:   cum,
		})
	}
	return st, nil
}

// Summary renders a Keras-style layer table for a model: name, output
// shape, parameters, and MFLOPs per layer, with feature layers marked.
func Summary(m *Model) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Model: %s (input %v)\n", m.Name, m.InputShape)
	fmt.Fprintf(&b, "%-4s %-14s %-16s %12s %10s  %s\n", "#", "layer", "output", "params", "MFLOPs", "")
	feature := map[int]bool{}
	for _, fl := range m.FeatureLayers {
		feature[fl.LayerIndex] = true
	}
	s := m.InputShape
	var totalParams, totalFLOPs int64
	for i, l := range m.Layers {
		params := l.Params(s)
		flops := l.FLOPs(s)
		next, err := l.OutShape(s)
		if err != nil {
			return "", fmt.Errorf("cnn: summary of %s layer %d: %w", m.Name, i, err)
		}
		mark := ""
		if feature[i] {
			mark = "◄ feature layer"
		}
		fmt.Fprintf(&b, "%-4d %-14s %-16s %12d %10.1f  %s\n",
			i, l.Name(), next.String(), params, float64(flops)/1e6, mark)
		totalParams += params
		totalFLOPs += flops
		s = next
	}
	fmt.Fprintf(&b, "total: %d params, %.1f MFLOPs per inference\n",
		totalParams, float64(totalFLOPs)/1e6)
	return b.String(), nil
}

// LayerStat returns the statistics of the named feature layer.
func (s *Stats) LayerStat(name string) (LayerStat, error) {
	for _, ls := range s.FeatureLayers {
		if ls.Name == name {
			return ls, nil
		}
	}
	return LayerStat{}, fmt.Errorf("%w: %q in stats for %s", ErrNoSuchLayer, name, s.ModelName)
}

// TopLayerStats returns the statistics for the k top-most feature layers,
// bottom-to-top — aligned with Model.TopFeatureLayers. The slice is the
// caller's own copy.
func (s *Stats) TopLayerStats(k int) ([]LayerStat, error) {
	if k <= 0 || k > len(s.FeatureLayers) {
		return nil, fmt.Errorf("cnn: stats for %s has %d feature layers; requested %d",
			s.ModelName, len(s.FeatureLayers), k)
	}
	out := make([]LayerStat, k)
	copy(out, s.FeatureLayers[len(s.FeatureLayers)-k:])
	return out, nil
}
