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

// WorkloadSpec bundles everything needed to build a simulator workload.
type WorkloadSpec struct {
	ModelName string
	NumLayers int
	Dataset   DatasetSpec
	PlanKind  plan.Kind
	Placement plan.JoinPlacement
	PreMat    bool
	// Nodes defaults to the profile's node count at Run time but is needed
	// here for optimizer inputs.
	Nodes int
	// CPUSys and MemSys describe the worker (default: paper cluster).
	CPUSys int
	MemSys int64
	MemGPU int64
	// TrainIters defaults to the paper's 10.
	TrainIters int
	// MLPDownstream marks the downstream model as a DL-resident MLP
	// (the TFT+Beam comparison); default is PD-resident logistic
	// regression.
	MLPDownstream bool
	// MemoryOnly marks Ignite-like execution semantics: UDFs materialize
	// whole decoded partitions (inflating User Memory needs) and Storage
	// Memory must fit the peak intermediate footprint (no disk spill). Set
	// it when the target profile is Ignite-like so the optimizer budgets
	// accordingly.
	MemoryOnly bool
}

// NewWorkload compiles the plan and assembles optimizer inputs.
func NewWorkload(ws WorkloadSpec) (Workload, error) {
	m, err := cnn.ByName(ws.ModelName)
	if err != nil {
		return Workload{}, err
	}
	stats, err := cnn.ComputeStats(m)
	if err != nil {
		return Workload{}, err
	}
	p, err := plan.Compile(ws.PlanKind, ws.Placement, stats, ws.NumLayers,
		plan.Options{PreMaterializeBase: ws.PreMat})
	if err != nil {
		return Workload{}, err
	}
	if ws.Nodes <= 0 {
		ws.Nodes = 8
	}
	if ws.CPUSys <= 0 {
		ws.CPUSys = 8
	}
	if ws.MemSys <= 0 {
		ws.MemSys = memory.GB(32)
	}
	if ws.TrainIters <= 0 {
		ws.TrainIters = 10
	}
	maxDim := ws.Dataset.StructDim
	layers, err := stats.TopLayerStats(ws.NumLayers)
	if err != nil {
		return Workload{}, err
	}
	for _, l := range layers {
		if l.FeatureDim+ws.Dataset.StructDim > maxDim {
			maxDim = l.FeatureDim + ws.Dataset.StructDim
		}
	}
	in := optimizer.Inputs{
		ModelStats:           stats,
		NumLayers:            ws.NumLayers,
		NumRows:              ws.Dataset.Rows,
		StructDim:            ws.Dataset.StructDim,
		ImageRowBytes:        ws.Dataset.ImageRowBytes,
		WholePartitionDecode: ws.MemoryOnly,
		StorageMustFit:       ws.MemoryOnly,
		NNodes:               ws.Nodes,
		MemSys:               ws.MemSys,
		MemGPU:               ws.MemGPU,
		CPUSys:               ws.CPUSys,
	}
	if ws.MLPDownstream {
		in.Placement = optimizer.MInDLMemory
		in.DownstreamMemBytes = optimizer.MLPMemBytes(maxDim, []int{1024, 1024})
	} else {
		in.Placement = optimizer.MInPDUserMemory
		in.DownstreamMemBytes = optimizer.LogRegMemBytes(maxDim)
	}
	return Workload{Plan: p, Inputs: in, TrainIters: ws.TrainIters}, nil
}

// VistaConfig runs the optimizer for the workload and returns the resulting
// configuration. It fails with optimizer.ErrNoFeasible when no configuration
// fits.
func VistaConfig(w Workload) (Config, error) {
	d, err := optimizer.Optimize(w.Inputs, optimizer.DefaultParams())
	if err != nil {
		return Config{}, err
	}
	return FromDecision(d, optimizer.DefaultParams()), nil
}
