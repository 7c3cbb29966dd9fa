package sim

import (
	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// DatasetSpec is the simulator-level description of a dataset (the paper's
// Foods and Amazon).
type DatasetSpec struct {
	Name string
	// Rows is the example count.
	Rows int
	// StructDim is the structured feature count.
	StructDim int
	// ImageRowBytes is the average raw (compressed) image payload.
	ImageRowBytes int64
}

// paperImageRowBytes is the average raw payload of the paper's images (≈14 KB
// JPEGs; Foods is ~300 MB over ~20k examples).
const paperImageRowBytes = 14 << 10

// PaperDataset describes a data preset at the paper's scale: the preset's
// cardinalities with the paper's JPEG-sized image rows (the in-process
// generator's raw tensors are larger, but it is the cluster the simulator
// prices).
func PaperDataset(p data.Spec) DatasetSpec {
	return DatasetSpec{Name: p.Name, Rows: p.Rows, StructDim: p.StructDim, ImageRowBytes: paperImageRowBytes}
}

// FoodsSpec matches the paper's Foods dataset: ~20k examples, 130 structured
// features, ~300 MB total.
func FoodsSpec() DatasetSpec { return PaperDataset(data.Foods()) }

// AmazonSpec matches the paper's Amazon dataset: ~200k examples, 200
// structured features, ~3 GB total.
func AmazonSpec() DatasetSpec { return PaperDataset(data.Amazon()) }

// Scale replicates the dataset's rows by f (the paper's semi-synthetic
// "1X/2X/4X/8X" scaling). The result is floored at one row: a sub-row
// product would otherwise truncate to zero and every downstream per-row
// cost (and the optimizer's feasibility check) silently degenerates.
func (d DatasetSpec) Scale(f float64) DatasetSpec {
	d.Rows = int(float64(d.Rows) * f)
	if d.Rows < 1 {
		d.Rows = 1
	}
	return d
}

// WithStructDim overrides the structured feature count (Figure 10(3,4)).
func (d DatasetSpec) WithStructDim(dim int) DatasetSpec {
	d.StructDim = dim
	return d
}

// WorkloadSpec is one feature-transfer workload's shape: the model, its
// layers and data, the logical plan, the workers, and the downstream model.
type WorkloadSpec struct {
	ModelName string
	// NumLayers is |L|, counted from the top-most feature layer; 0 selects
	// all the model's feature layers, the paper's default (Section 5).
	NumLayers int
	Dataset   DatasetSpec
	PlanKind  plan.Kind
	Placement plan.JoinPlacement
	PreMat    bool
	// Nodes, CPUSys and MemSys describe the workers (default: the paper
	// cluster's 8 nodes × 8 cores × 32 GB); MemGPU is per-worker
	// accelerator memory (0 = none).
	Nodes  int
	CPUSys int
	MemSys int64
	MemGPU int64
	// TrainIters defaults to the paper's 10.
	TrainIters int
	// Downstream is the downstream model M's memory footprint.
	Downstream Downstream
	// MemoryOnly marks Ignite-like execution semantics: UDFs materialize
	// whole decoded partitions (inflating User Memory needs) and Storage
	// Memory must fit the peak intermediate footprint (no disk spill).
	MemoryOnly bool
	// Stored reports which entries a feature store holds for this workload:
	// the features emitted at model layer layerIndex or, with carry, the raw
	// tensor a Staged step keeps there. NewWorkload decides from it which plan
	// steps attach (plan.Attachable), which Run prices as store reads, and
	// whether Equation 16's inputs shrink to a fully-warm run's. nil means
	// cold.
	Stored func(layerIndex int, carry bool) bool
}

// Downstream is the downstream model M as Algorithm 1 budgets it. The zero
// value is the paper's M: logistic regression in PD User Memory.
type Downstream struct {
	// MLP places M in DL Execution Memory as a multilayer perceptron with
	// Hidden layer widths.
	MLP    bool
	Hidden []int
}

// Inputs turns ws's shape over stats, its model's statistics, into
// Algorithm 1's inputs. It is the one place Equation 16's inputs are built:
// the simulator's workloads and core's planning and pricing both call it.
func (ws WorkloadSpec) Inputs(stats *cnn.Stats) (optimizer.Inputs, error) {
	if ws.Nodes <= 0 {
		ws.Nodes = 8
	}
	if ws.CPUSys <= 0 {
		ws.CPUSys = 8
	}
	if ws.MemSys <= 0 {
		ws.MemSys = memory.GB(32)
	}
	if ws.NumLayers <= 0 {
		ws.NumLayers = len(stats.FeatureLayers)
	}
	layers, err := stats.TopLayerStats(ws.NumLayers)
	if err != nil {
		return optimizer.Inputs{}, err
	}
	maxDim := ws.Dataset.StructDim
	for _, l := range layers {
		maxDim = max(maxDim, l.FeatureDim+ws.Dataset.StructDim)
	}
	in := optimizer.Inputs{
		ModelStats:           stats,
		NumLayers:            ws.NumLayers,
		NumRows:              ws.Dataset.Rows,
		StructDim:            ws.Dataset.StructDim,
		ImageRowBytes:        ws.Dataset.ImageRowBytes,
		WholePartitionDecode: ws.MemoryOnly,
		StorageMustFit:       ws.MemoryOnly,
		Placement:            optimizer.MInPDUserMemory,
		DownstreamMemBytes:   optimizer.LogRegMemBytes(maxDim),
		NNodes:               ws.Nodes,
		MemSys:               ws.MemSys,
		MemGPU:               ws.MemGPU,
		CPUSys:               ws.CPUSys,
	}
	if ws.Downstream.MLP {
		in.Placement = optimizer.MInDLMemory
		in.DownstreamMemBytes = optimizer.MLPMemBytes(maxDim, ws.Downstream.Hidden)
	}
	return in, nil
}

// NewWorkload compiles the plan, decides which of its steps attach from
// ws.Stored, and assembles optimizer inputs.
func NewWorkload(ws WorkloadSpec) (Workload, error) {
	m, err := cnn.ByName(ws.ModelName)
	if err != nil {
		return Workload{}, err
	}
	stats, err := cnn.ComputeStats(m)
	if err != nil {
		return Workload{}, err
	}
	in, err := ws.Inputs(stats)
	if err != nil {
		return Workload{}, err
	}
	p, err := plan.Compile(ws.PlanKind, ws.Placement, stats, in.NumLayers,
		plan.Options{PreMaterializeBase: ws.PreMat})
	if err != nil {
		return Workload{}, err
	}
	if ws.TrainIters <= 0 {
		ws.TrainIters = 10
	}
	attached := p.Attachable(ws.Stored)
	in.FullyCached = p.FullyCached(attached)
	return Workload{Plan: p, Inputs: in, TrainIters: ws.TrainIters, Attached: attached}, nil
}
