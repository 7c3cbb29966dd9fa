// Package optimizer implements the Vista optimizer (Section 4.3,
// Algorithm 1): given the user's inputs (Table 1(A)) it picks the system
// variables of Table 1(B) — degree of parallelism cpu, number of partitions
// np, memory apportioning (Storage/User/DL Execution), the physical join
// operator, and the persistence format — by linear search on cpu subject to
// the constraints of Equations 9–15, using the intermediate-size estimates of
// Equation 16 (Appendix A).
package optimizer

import (
	"errors"
	"fmt"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/plan"
)

// Params are the fixed-but-adjustable system parameters of Table 1(C).
type Params struct {
	// MemOSReserved is the OS reservation (default 3 GB).
	MemOSReserved int64
	// MemCore is Core Memory per best-practice guidelines (default 2.4 GB).
	MemCore int64
	// PMax is the maximum data-partition size (default 100 MB).
	PMax int64
	// BMax is the maximum broadcast size (default 100 MB).
	BMax int64
	// CPUMax caps the searched degree of parallelism (default 8).
	CPUMax int
	// Alpha is the fudge factor for the size blow-up of binary feature
	// vectors as managed-runtime objects (default 2).
	Alpha float64
}

// DefaultParams returns the paper's Table 1(C) defaults.
func DefaultParams() Params {
	return Params{
		MemOSReserved: memory.GB(3),
		MemCore:       memory.MB(2.4 * 1024),
		PMax:          memory.MB(100),
		BMax:          memory.MB(100),
		CPUMax:        8,
		Alpha:         2,
	}
}

// DownstreamPlacement says where the downstream model M's working memory
// lives (Equations 10–11 distinguish the two cases).
type DownstreamPlacement int

// Placements for M.
const (
	// MInPDUserMemory: M is a PD-system model (e.g. MLlib logistic
	// regression); its footprint counts against User Memory.
	MInPDUserMemory DownstreamPlacement = iota
	// MInDLMemory: M is a DL model (e.g. an MLP on the DL system); its
	// footprint counts against DL Execution Memory.
	MInDLMemory
)

// Inputs are the user-provided quantities of Table 1(A), plus the statistics
// Vista derives from its roster and the data (Section 4.3).
type Inputs struct {
	// ModelStats is the roster CNN's derived statistics (|f|_ser, |f|_mem,
	// |f|_mem_gpu, feature-layer sizes).
	ModelStats *cnn.Stats
	// NumLayers is |L|, counted from the top-most feature layer.
	NumLayers int
	// NumRows is the example count.
	NumRows int
	// StructDim is ds, the structured feature count.
	StructDim int
	// ImageRowBytes is the average stored image payload per row (JPEG in the
	// paper's datasets, the raw float32 tensor format in served runs);
	// it sizes the base joined table. When 0, the CNN's input-tensor size
	// with a conservative 4× compression ratio is assumed.
	ImageRowBytes int64
	// WholePartitionDecode marks PD systems whose UDF execution
	// materializes an entire decoded input partition at once (Ignite-like)
	// rather than streaming record batches through the DL system
	// (Spark-like iterators); it inflates the User Memory working set.
	WholePartitionDecode bool
	// StorageMustFit marks memory-only PD systems (Ignite configured
	// without disk backing): feasibility then also requires Storage Memory
	// to hold the peak intermediate footprint, since there is no spill
	// path.
	StorageMustFit bool
	// DownstreamMemBytes is |M|_mem.
	DownstreamMemBytes int64
	// Placement locates M's working memory.
	Placement DownstreamPlacement
	// NNodes is the worker count.
	NNodes int
	// MemSys is System Memory per worker.
	MemSys int64
	// MemGPU is GPU memory per worker (0 = no GPU).
	MemGPU int64
	// CPUSys is the core count per worker.
	CPUSys int
	// FullyCached says every step of the workload's plan attaches from a
	// materialized feature store for this exact (model, weights, data)
	// triple (plan.Attachable). It shrinks the Equation 16 cost picture: the
	// workload needs no raw images, no model replicas in DL Execution
	// Memory, and no broadcast of the serialized model.
	FullyCached bool
}

// Decision is the optimizer's output: the Table 1(B) variables.
type Decision struct {
	CPU        int
	NP         int
	MemStorage int64
	MemUser    int64
	MemDL      int64
	Join       dataflow.JoinKind
	Pers       dataflow.PersistFormat
	// SSingle and SDouble are the peak intermediate sizes (Equations 5–6)
	// the decision was based on, for reporting.
	SSingle, SDouble int64
}

// FollowerDecision derives the configuration a sharing follower runs under:
// identical to d except with no DL Execution Memory, because a follower
// attaches its group leader's materialized feature tables instead of running
// CNN inference — it never opens a DL session, so Equation 13's replica
// memory is not reserved. Storage and User memory stay: the follower still
// holds the feature tables and trains its own downstream models.
func FollowerDecision(d Decision) Decision {
	d.MemDL = 0
	return d
}

// Apportionment renders the decision as a per-worker memory apportionment.
func (d Decision) Apportionment(params Params) memory.Apportionment {
	return memory.Apportionment{
		OSReserved:  params.MemOSReserved,
		DLExecution: d.MemDL,
		User:        d.MemUser,
		Core:        params.MemCore,
		Storage:     d.MemStorage,
	}
}

// ErrNoFeasible is returned when no cpu value satisfies all constraints —
// Algorithm 1's "no feasible solution" exception, telling the user to
// provision more memory.
var ErrNoFeasible = errors.New("optimizer: no feasible configuration; provision machines with more memory")

// rowOverheadBytes is the fixed per-record overhead of the internal record
// format (Equation 16's 8 + 8: key plus header words).
const rowOverheadBytes = 16

// storageCompression is the average compression a compressed binary format
// achieves over deserialized bytes: Spark's serialized persistence (Appendix
// A, Figure 15: ~2–4× depending on feature sparsity; a flat factor here) and
// a memory-only system's native format (Ignite, Section 4.2.3).
const storageCompression = 2.2

// EstimateTableSize implements Equation 16: the size of intermediate table
// T_i holding feature layer l with |g_l(f̂_l(I))| features, as
// α1·(8 + 8 + 4·dim)·rows + |Tstr|.
func EstimateTableSize(numRows, featureDim, structDim int, alpha float64) int64 {
	perRow := float64(rowOverheadBytes + 4*featureDim)
	return int64(alpha*perRow)*int64(numRows) + StructTableSize(numRows, structDim)
}

// StructTableSize estimates |Tstr|.
func StructTableSize(numRows, structDim int) int64 {
	return int64(numRows) * int64(rowOverheadBytes+4*structDim)
}

// baseTableSize is the cached base of a run: |Tstr| plus the raw image
// payloads |Timg|, which a fully-cached run never loads. An unset
// ImageRowBytes assumes the CNN's input tensor at a conservative 4×
// compression.
func baseTableSize(in Inputs) int64 {
	base := StructTableSize(in.NumRows, in.StructDim)
	if !in.FullyCached {
		img := in.ImageRowBytes
		if img <= 0 {
			img = in.ModelStats.InputBytes / 4
		}
		base += int64(in.NumRows) * img
	}
	return base
}

// IntermediateSizes returns |T_i| for every selected layer (bottom-to-top)
// plus s_single and s_double (Equations 5–6). Beyond the paper's Equation 16
// (which sizes only the flattened feature columns), the estimates also cover
// what the Staged plan actually materializes: the joined base table holding
// the raw images, and the unpooled raw tensor each non-final stage carries
// forward for partial inference. Both flow through the same UDF working
// memory, so omitting them would under-budget User Memory.
func IntermediateSizes(in Inputs, params Params) (sizes []int64, sSingle, sDouble int64, err error) {
	layers, err := in.ModelStats.TopLayerStats(in.NumLayers)
	if err != nil {
		return nil, 0, 0, err
	}
	base := baseTableSize(in)
	sSingle = base

	sizes = make([]int64, len(layers))
	for i, l := range layers {
		// T_i holds the layer's raw (unpooled) tensor: under Staged it is
		// the partial-inference carry, and g_l pooling happens at training
		// time. Pooled vectors are never larger, so this bounds the real
		// engine safely too.
		sizes[i] = EstimateTableSize(in.NumRows, l.RawElems, in.StructDim, params.Alpha)
		if sizes[i] > sSingle {
			sSingle = sizes[i]
		}
	}
	tstr := StructTableSize(in.NumRows, in.StructDim)
	sDouble = base + sizes[0] - tstr
	for i := 0; i+1 < len(sizes); i++ {
		if d := sizes[i] + sizes[i+1] - tstr; d > sDouble {
			sDouble = d
		}
	}
	return sizes, sSingle, sDouble, nil
}

// Tables are the intermediates one plan materializes, in deserialized bytes
// (no α fudge): what the Section 4.1 demand of a configuration is sized from.
type Tables struct {
	// Kind is the plan; it decides which tables are cached at once.
	Kind plan.Kind
	// Base is the cached base tables (baseTableSize).
	Base int64
	// Layers[i] is the intermediate table of the plan's layer i.
	Layers []int64
	// Single is the table whose np-th share one UDF thread materializes:
	// Equation 16's α-inflated s_single when planning (Planned), the plan's
	// largest layer table when simulating a run (PlanTables).
	Single int64
	// Compressed marks storage that holds the compressed binary format.
	Compressed bool
}

// PlanTables sizes the tables p materializes over in's rows. Every record
// carries the 16-byte header, plus Tstr's columns under the AJ placement
// (joined tables retain X), plus per plan: Lazy's g_l-pooled feature
// vector; Eager's raw tensor (pooling happens at training time — the
// Section 1.1 blow-up); Staged's emitted pooled vector and the raw carry;
// and, for a pre-materialized base (Appendix B), the raw tensor later
// partial inference continues from.
func PlanTables(in Inputs, p *plan.Plan) Tables {
	rows := int64(in.NumRows)
	var carried int64
	if p.Placement == plan.AfterJoin {
		carried = StructTableSize(in.NumRows, in.StructDim)
	}
	t := Tables{Kind: p.Kind, Base: baseTableSize(in), Layers: make([]int64, len(p.Layers))}
	for i, l := range p.Layers {
		perRow := int64(rowOverheadBytes)
		switch {
		case i == p.PreMaterializedBase || p.Kind == plan.Eager:
			perRow += l.RawBytes
		case p.Kind == plan.Lazy:
			perRow += 4 * int64(l.FeatureDim)
		default: // Staged
			perRow += 4*int64(l.FeatureDim) + l.RawBytes
		}
		t.Layers[i] = rows*perRow + carried
		t.Single = max(t.Single, t.Layers[i])
	}
	return t
}

// Planned returns the tables Algorithm 1 plans against — Vista's Staged plan
// with the AJ placement, compressed on a memory-only system — with Single
// set to Equation 16's s_single, and s_double.
func Planned(in Inputs, params Params) (t Tables, sDouble int64, err error) {
	layers, err := in.ModelStats.TopLayerStats(in.NumLayers)
	if err != nil {
		return Tables{}, 0, err
	}
	_, sSingle, sDouble, err := IntermediateSizes(in, params)
	if err != nil {
		return Tables{}, 0, err
	}
	t = PlanTables(in, &plan.Plan{Kind: plan.Staged, Placement: plan.AfterJoin,
		Layers: layers, PreMaterializedBase: -1})
	t.Single = sSingle
	t.Compressed = in.StorageMustFit
	return t, sDouble, nil
}

// Stored maps b deserialized bytes to their footprint in t's storage.
func (t Tables) Stored(b int64) float64 {
	if t.Compressed {
		return float64(b) / storageCompression
	}
	return float64(b)
}

// Live is the bytes cached while the table of layer i is built: the base,
// plus every table under Eager, the previous and this table under Staged,
// this table under Lazy.
func (t Tables) Live(i int) int64 {
	switch t.Kind {
	case plan.Eager:
		live := t.Base
		for _, b := range t.Layers {
			live += b
		}
		return live
	case plan.Staged:
		live := t.Base + t.Layers[i]
		if i > 0 {
			live += t.Layers[i-1]
		}
		return live
	default: // Lazy
		return t.Base + t.Layers[i]
	}
}

// Regions is one configuration's per-worker demand on each memory region of
// Section 4.1, in bytes.
type Regions struct {
	// Storage is the plan's peak cached footprint, as stored.
	Storage int64
	// User is Equation 10's UDF working memory.
	User int64
	// DL is Equation 11's DL Execution Memory.
	DL int64
	// Core is the join's build partitions (crash scenario 3).
	Core int64
	// Driver is the broadcast of Tstr (crash scenario 4).
	Driver int64
	// Device is Equation 15's GPU replicas.
	Device int64
}

// Demand is the memory a run with cpu threads over np partitions of the
// tables t needs on each worker (Section 4.1, Equations 9–15). The optimizer
// budgets against it and the simulator crashes on it.
func Demand(in Inputs, cpu, np int, t Tables, params Params) Regions {
	st := in.ModelStats
	c, parts := int64(cpu), int64(np)
	var r Regions

	peak := t.Base
	for i := range t.Layers {
		peak = max(peak, t.Live(i))
	}
	r.Storage = ceilDiv(int64(t.Stored(peak)), int64(in.NNodes))

	// User Memory (Equation 10, extended): the serialized model, plus per
	// thread the materialized output partition, a decoded input batch, and
	// inference activation buffers — α-inflated for managed-runtime
	// overhead.
	working := ceilDiv(t.Single, parts)
	serialized := st.SerializedBytes
	if in.FullyCached {
		// Cached features stream straight from the store: no image decoding,
		// no DL batching, no activations, and no broadcast checkpoint.
		serialized = 0
	} else {
		// Partitions stream through the DL system a batch at a time, so
		// only cnn.InferenceBatch decoded images are resident.
		batch := int64(cnn.InferenceBatch) * st.InputBytes
		decode := batch
		if in.WholePartitionDecode {
			decode = max(decode, ceilDiv(int64(in.NumRows)*st.InputBytes, parts))
		}
		// decode buffers + the DL system's own input batch copy + activations.
		working += decode + batch + st.ActivationWorkingBytes
	}
	r.User = serialized + int64(float64(cpu)*params.Alpha*float64(working))
	if in.Placement == MInPDUserMemory {
		r.User = max(r.User, c*in.DownstreamMemBytes)
	}

	// DL Execution Memory (Equation 11): cpu model replicas — none when no
	// inference runs — plus the downstream model when it runs on the DL
	// system.
	if !in.FullyCached {
		r.DL = c * st.MemBytes
	}
	if in.Placement == MInDLMemory {
		r.DL = max(r.DL, c*in.DownstreamMemBytes)
	}

	r.Core = c * (max(t.Single, t.Base) / parts)
	r.Driver = StructTableSize(in.NumRows, in.StructDim)
	r.Device = c * st.GPUMemBytes
	return r
}

// NumPartitions implements Algorithm 1's helper: the smallest multiple of
// the total core count whose partitions stay under PMax (Equations 13–14).
func NumPartitions(sSingle int64, cpu, nNodes int, pMax int64) int {
	totalCores := cpu * nNodes
	if totalCores <= 0 {
		return 1
	}
	mult := (sSingle + pMax*int64(totalCores) - 1) / (pMax * int64(totalCores))
	if mult < 1 {
		mult = 1
	}
	return int(mult) * totalCores
}

// validate sanity-checks the optimizer inputs.
func validate(in Inputs) error {
	switch {
	case in.ModelStats == nil:
		return fmt.Errorf("optimizer: nil model stats")
	case in.NumLayers <= 0:
		return fmt.Errorf("optimizer: |L| must be positive, got %d", in.NumLayers)
	case in.NumRows <= 0:
		return fmt.Errorf("optimizer: no rows")
	case in.StructDim < 0:
		return fmt.Errorf("optimizer: negative struct dim")
	case in.NNodes <= 0:
		return fmt.Errorf("optimizer: no worker nodes")
	case in.CPUSys <= 0:
		return fmt.Errorf("optimizer: no cores")
	case in.MemSys <= 0:
		return fmt.Errorf("optimizer: no system memory")
	}
	return nil
}

// Optimize implements Algorithm 1 (OptimizeFeatureTransfer): linear search on
// cpu from min(cpu_sys, cpu_max)−1 down to 1, maximizing cpu (Equation 8)
// subject to Equations 9–15, each checked against the Demand of the Planned
// tables.
func Optimize(in Inputs, params Params) (Decision, error) {
	if err := validate(in); err != nil {
		return Decision{}, err
	}
	t, sDouble, err := Planned(in, params)
	if err != nil {
		return Decision{}, err
	}

	upper := in.CPUSys
	if params.CPUMax < upper {
		upper = params.CPUMax
	}
	upper-- // leave one core for the OS (Equation 9)

	for x := upper; x >= 1; x-- {
		np := NumPartitions(t.Single, x, in.NNodes, params.PMax)
		need := Demand(in, x, np, t, params)
		// GPU constraint (Equation 15).
		if in.MemGPU > 0 && need.Device >= in.MemGPU {
			continue
		}
		// Equation 12: what OS Reserved, DL Execution, User and Core Memory
		// leave is Storage.
		storage := in.MemSys - params.MemOSReserved - need.DL - need.User - params.MemCore
		// A memory-only system has no spill path: Storage must hold the
		// peak footprint.
		if in.StorageMustFit && storage < need.Storage {
			continue
		}
		if storage > 0 {
			d := Decision{
				CPU:        x,
				NP:         np,
				MemDL:      need.DL,
				MemUser:    need.User,
				MemStorage: storage,
				Join:       dataflow.ShuffleJoin,
				Pers:       dataflow.Deserialized,
				SSingle:    t.Single,
				SDouble:    sDouble,
			}
			if need.Driver < params.BMax {
				d.Join = dataflow.BroadcastJoin
			}
			// Algorithm 1 line 15: serialize when disk spills or cache
			// misses are likely — the per-worker share of the peak
			// two-table footprint exceeds Storage Memory.
			if d.MemStorage < sDouble/int64(in.NNodes) {
				d.Pers = dataflow.Serialized
			}
			return d, nil
		}
	}
	return Decision{}, ErrNoFeasible
}

// LogRegMemBytes estimates |M|_mem for a logistic regression over dim
// features: weights, gradients, and accumulation buffers, plus a fixed
// training-framework overhead ("for logistic regression, |M| is proportional
// to the sum of structured features and the maximum number of CNN features
// for any layer", Section 4.3).
func LogRegMemBytes(dim int) int64 {
	return int64(dim)*4*8 + memory.MB(16)
}

// MLPMemBytes estimates |M|_mem for an MLP with the given hidden widths over
// dim input features: parameters ×4 B ×3 (weights, gradients, activations)
// plus framework overhead.
func MLPMemBytes(dim int, hidden []int) int64 {
	widths := append([]int{dim}, hidden...)
	widths = append(widths, 1)
	var params int64
	for i := 0; i+1 < len(widths); i++ {
		params += int64(widths[i])*int64(widths[i+1]) + int64(widths[i+1])
	}
	return params*4*3 + memory.MB(64)
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
