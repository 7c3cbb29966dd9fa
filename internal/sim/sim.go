package sim

import (
	"fmt"
	"math"

	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// Workload describes one feature-transfer job for the simulator.
type Workload struct {
	// Plan is the compiled logical plan (carries the CNN's selected layer
	// statistics and per-step FLOP counts).
	Plan *plan.Plan
	// Inputs are the optimizer-level inputs (model stats, rows, dims,
	// image bytes, downstream footprint) the crash model shares with the
	// optimizer.
	Inputs optimizer.Inputs
	// TrainIters is the downstream model's iteration count (paper: 10).
	TrainIters int
	// Attached marks the plan steps served from a feature store
	// (plan.Attachable), indexed by step; nil or a false entry runs live.
	Attached []bool
}

// attached reports whether plan step i is served from the feature store.
func (w Workload) attached(i int) bool { return i < len(w.Attached) && w.Attached[i] }

// Config is the system configuration under test: either an optimizer
// Decision (Vista) or a hand-built baseline.
type Config struct {
	CPU, NP   int
	Apportion memory.Apportionment
	Join      dataflow.JoinKind
	Pers      dataflow.PersistFormat
}

// FromDecision converts an optimizer decision into a simulator config.
func FromDecision(d optimizer.Decision, params optimizer.Params) Config {
	return Config{
		CPU:       d.CPU,
		NP:        d.NP,
		Apportion: d.Apportionment(params),
		Join:      d.Join,
		Pers:      d.Pers,
	}
}

// LayerCost is the per-layer runtime breakdown (Table 3's rows).
type LayerCost struct {
	Layer string
	// InferSec is partial CNN inference for this layer's stage.
	InferSec float64
	// TrainFirstSec is the downstream model's first iteration, which scans
	// the stage's materialized table (Appendix C: the first iteration
	// dominates).
	TrainFirstSec float64
	// TrainRestSec is the remaining iterations over pooled features.
	TrainRestSec float64
	// JoinSec is per-layer join cost (BJ placement only).
	JoinSec float64
	// SpillSec is disk-spill I/O attributed to this layer's stage.
	SpillSec float64
	// LiveStorageBytes is the predicted cluster-wide storage-pool occupancy
	// while this layer's table is live, capped at the storage budget
	// (CompareStorage takes the run's peak over them).
	LiveStorageBytes int64
	// SpilledBytes is the spill volume attributed to this layer's stage.
	SpilledBytes int64
}

// Total returns the layer's total seconds.
func (l LayerCost) Total() float64 {
	return l.InferSec + l.TrainFirstSec + l.TrainRestSec + l.JoinSec + l.SpillSec
}

// Result is a simulated run.
type Result struct {
	// Crash is non-nil when the configuration hits a Section 4.1 crash
	// scenario; costs are then undefined.
	Crash error
	// ReadSec is input ingestion (struct file + the images' small-files
	// penalty).
	ReadSec float64
	// JoinSec is the up-front join cost (AJ placement).
	JoinSec float64
	// Layers is the per-layer breakdown.
	Layers []LayerCost
	// SpilledBytes is total spill traffic.
	SpilledBytes int64
	// PeakStoragePerNode is the high-water cached footprint per worker.
	PeakStoragePerNode int64
	// BaseStorageBytes is the stored footprint of the base tables — the
	// cluster-wide storage occupancy predicted while the up-front join (AJ)
	// holds both inputs, before any layer table exists.
	BaseStorageBytes int64
	// StorageCapBytes is the cluster-wide storage budget under the
	// configuration (occupancy predictions are capped at it).
	StorageCapBytes int64
}

// TotalSec returns the run's total simulated seconds.
func (r *Result) TotalSec() float64 {
	t := r.ReadSec + r.JoinSec
	for _, l := range r.Layers {
		t += l.Total()
	}
	return t
}

// TotalMin returns the run's total simulated minutes.
func (r *Result) TotalMin() float64 { return r.TotalSec() / 60 }

// model is the simulator's internal, fully resolved view of one run.
type model struct {
	w    Workload
	cfg  Config
	prof Profile
	// in is the workload's inputs on prof's cluster, where a memory-only
	// store decodes whole partitions.
	in optimizer.Inputs
	// t are the tables the plan materializes, as prof's storage holds them.
	t optimizer.Tables

	rows float64
	tstr float64 // |Tstr| bytes
	timg float64 // |Timg| bytes
	// pooledBytes is the pooled training projection per Plan.Layers entry.
	pooledBytes []float64
}

func newModel(w Workload, cfg Config, prof Profile) *model {
	m := &model{w: w, cfg: cfg, prof: prof, in: w.Inputs, rows: float64(w.Inputs.NumRows)}
	m.in.NNodes = prof.Nodes
	m.in.WholePartitionDecode = m.in.WholePartitionDecode || !prof.Kind.SupportsSpill()
	m.t = optimizer.PlanTables(m.in, w.Plan)
	// Ignite always stores a compressed binary format (Section 4.2.3);
	// Spark compresses only under the serialized persistence choice.
	m.t.Compressed = cfg.Pers == dataflow.Serialized || !prof.Kind.SupportsSpill()
	m.tstr = float64(optimizer.StructTableSize(w.Inputs.NumRows, w.Inputs.StructDim))
	m.timg = float64(m.t.Base) - m.tstr

	m.pooledBytes = make([]float64, len(w.Plan.Layers))
	for i, l := range w.Plan.Layers {
		m.pooledBytes[i] = m.rows * 4 * float64(w.Inputs.StructDim+l.FeatureDim)
	}
	return m
}

// PreMaterializationCost simulates materializing the bottom-most selected
// layer ahead of time (Appendix B): read the images, run partial inference
// from the image to the base layer, and write the raw feature table to
// disk. It is reported separately, as in Figures 6 and 16.
func PreMaterializationCost(w Workload, cfg Config, prof Profile) Result {
	if err := validateRun(w, cfg, prof); err != nil {
		return Result{Crash: err}
	}
	m := newModel(w, cfg, prof)
	nodes := float64(prof.Nodes)
	base := w.Plan.Layers[0]
	res := Result{}
	res.ReadSec = m.rows*prof.PerImageReadMs/1000/math.Pow(nodes, prof.ReadParallelExp) +
		(m.timg+m.tstr)/(nodes*prof.DiskMBps*mb)
	nodeGFLOPS := prof.BaseGFLOPS * parallelEfficiency(cfg.CPU) * computeEfficiency(w.Inputs.ModelStats.ModelName)
	if prof.GPU != nil {
		nodeGFLOPS = prof.GPU.GFLOPS
	}
	tableBytes := int64(w.Inputs.NumRows) * (16 + base.RawBytes)
	res.Layers = []LayerCost{{
		Layer:         base.Name,
		InferSec:      m.rows * float64(base.CumFLOPs) / (nodeGFLOPS * 1e9 * nodes),
		TrainFirstSec: m.t.Stored(tableBytes) / (nodes * prof.DiskMBps * mb), // write-out
	}}
	return res
}

// stored is the in-storage footprint of Plan.Layers entry li's table.
func (m *model) stored(li int) float64 { return m.t.Stored(m.t.Layers[li]) }

// Run simulates one workload under one configuration on one profile.
func Run(w Workload, cfg Config, prof Profile) Result {
	if err := validateRun(w, cfg, prof); err != nil {
		return Result{Crash: err}
	}
	m := newModel(w, cfg, prof)
	if err := m.crashCheck(); err != nil {
		return Result{Crash: err}
	}

	nodes := float64(prof.Nodes)
	st := w.Inputs.ModelStats
	res := Result{}

	// ——— Read ———
	readsImages := false
	for i, s := range w.Plan.Steps {
		if s.FromImage && !w.attached(i) {
			readsImages = true
		}
	}
	if readsImages {
		res.ReadSec = m.rows*prof.PerImageReadMs/1000/math.Pow(nodes, prof.ReadParallelExp) +
			(m.timg+m.tstr)/(nodes*prof.DiskMBps*mb)
	} else {
		res.ReadSec = m.tstr / (nodes * prof.DiskMBps * mb)
	}
	if w.Plan.PreMaterializedBase >= 0 {
		// The pre-materialized base layer is read from disk (Appendix B:
		// feature layers are "generally larger than the compressed image
		// formats", raising I/O cost).
		res.ReadSec += m.stored(w.Plan.PreMaterializedBase) / (nodes * prof.DiskMBps * mb)
	}

	// ——— Up-front join (AJ) ———
	if w.Plan.Placement == plan.AfterJoin {
		res.JoinSec = joinCost(cfg.Join, m.tstr, m.timg, prof)
	}

	// ——— Per-stage inference + training ———
	nodeGFLOPS := prof.BaseGFLOPS * parallelEfficiency(cfg.CPU) * computeEfficiency(st.ModelName)
	if prof.GPU != nil {
		nodeGFLOPS = prof.GPU.GFLOPS
	}
	taskSec := func(passes float64) float64 {
		per := prof.PerTaskOverheadMs
		if cfg.NP > prof.HighNPThreshold {
			per += prof.HighNPPenaltyMs
		}
		return passes * float64(cfg.NP) * per / 1000 / (nodes * float64(cfg.CPU))
	}
	scanRate := prof.ScanMBps
	if m.t.Compressed {
		scanRate *= 0.85 // decompression tax on scans
	}
	storageCap := float64(cfg.Apportion.Storage) * nodes
	res.StorageCapBytes = int64(storageCap)
	res.BaseStorageBytes = int64(math.Min(m.t.Stored(m.t.Base), storageCap))

	layerIdx := 0
	for stepIdx, step := range w.Plan.Steps {
		var inferSec float64
		if w.attached(stepIdx) {
			// Cache attach: load the stage's materialized table from the
			// store instead of running partial inference — disk I/O plus the
			// task overhead of the attach pass, zero CNN FLOPs and no DL
			// stage startup.
			li := layerOffset(w.Plan, layerIdx+len(step.Emits)-1)
			inferSec = m.stored(li)/(nodes*prof.DiskMBps*mb) + taskSec(1)
		} else {
			inferSec = m.rows*float64(step.FLOPsPerImage)/(nodeGFLOPS*1e9*nodes) + taskSec(1) + 3
			if !step.FromImage {
				// Passes reading the pre-materialized base re-scan it from the
				// cache/disk each time (Appendix B's I/O cost); a staged
				// chain's carry was just written and is hot, so it costs
				// nothing extra beyond its materialization.
				if src := m.inputTableIndex(step); src >= 0 && src == w.Plan.PreMaterializedBase {
					inferSec += m.stored(src) / (nodes * scanRate * mb)
				}
			}
		}
		for range step.Emits {
			li := layerOffset(w.Plan, layerIdx)
			l := w.Plan.Layers[li]
			lc := LayerCost{Layer: l.Name}
			// A step's inference cost is attributed to its first emitted
			// layer (Eager's single pass lands on the bottom layer).
			lc.InferSec = inferSec
			inferSec = 0

			// Storage pressure while this layer's table is live.
			live := m.t.Stored(m.t.Live(li))
			if over := live - storageCap; over > 0 {
				res.SpilledBytes += int64(over)
				lc.SpilledBytes = int64(over)
				lc.SpillSec = 2 * over / (nodes * prof.SpillMBps * mb)
			}
			lc.LiveStorageBytes = int64(math.Min(live, storageCap))
			if pn := int64(math.Min(live, storageCap) / nodes); pn > res.PeakStoragePerNode {
				res.PeakStoragePerNode = pn
			}

			// BJ: a per-layer join of Tstr with the pooled projection.
			if w.Plan.Placement == plan.BeforeJoin {
				lc.JoinSec = joinCost(cfg.Join, m.tstr, m.pooledBytes[li], prof)
			}

			// Downstream training: the first iteration scans the stage's
			// materialized table; later iterations scan the pooled
			// projection (cached in the trainer's own format).
			lc.TrainFirstSec = m.stored(li)/(nodes*scanRate*mb) + taskSec(1)
			if w.TrainIters > 1 {
				lc.TrainRestSec = float64(w.TrainIters-1) *
					(m.pooledBytes[li]/(nodes*prof.ScanMBps*mb*4) + taskSec(1)/2)
			}
			res.Layers = append(res.Layers, lc)
			layerIdx++
		}
	}
	// Pre-materialized base layer (Appendix B): trained with no inference.
	if w.Plan.PreMaterializedBase >= 0 {
		li := w.Plan.PreMaterializedBase
		l := w.Plan.Layers[li]
		lc := LayerCost{
			Layer:            l.Name,
			TrainFirstSec:    m.stored(li)/(nodes*scanRate*mb) + taskSec(1),
			LiveStorageBytes: int64(math.Min(m.stored(li), storageCap)),
		}
		if w.TrainIters > 1 {
			lc.TrainRestSec = float64(w.TrainIters-1) * (m.pooledBytes[li] / (nodes * prof.ScanMBps * mb * 4))
		}
		res.Layers = append([]LayerCost{lc}, res.Layers...)
	}
	return res
}

const mb = 1 << 20

// inputTableIndex returns the Plan.Layers index of the table a continuation
// step reads from: the feature layer immediately below the step's From, or
// -1 when the step reads raw images.
func (m *model) inputTableIndex(step plan.Step) int {
	best := -1
	for i, l := range m.w.Plan.Layers {
		if l.LayerIndex < step.From && (best < 0 || l.LayerIndex > m.w.Plan.Layers[best].LayerIndex) {
			best = i
		}
	}
	return best
}

// layerOffset maps the i-th *computed* layer to its index in Plan.Layers
// (pre-materialized plans skip the base layer in Steps).
func layerOffset(p *plan.Plan, i int) int {
	if p.PreMaterializedBase >= 0 {
		return i + 1
	}
	return i
}

// joinCost models one key-key join: shuffle moves both sides across the
// network; broadcast ships the small side everywhere and scans the big side
// locally.
func joinCost(kind dataflow.JoinKind, small, large float64, prof Profile) float64 {
	nodes := float64(prof.Nodes)
	switch kind {
	case dataflow.BroadcastJoin:
		return small/(prof.NetMBps*mb) + large/(nodes*prof.ScanMBps*mb) + 2
	default:
		return (small+large)/(nodes*prof.NetMBps*mb) + (small+large)/(nodes*prof.ScanMBps*mb) + 2
	}
}

// crashCheck applies the Section 4.1 crash scenarios: the first region, in
// the order below, whose optimizer.Demand exceeds what the configuration
// gives it crashes the run. Device memory must stay strictly below its bound
// (Equation 15); every other region may fill up exactly.
func (m *model) crashCheck() error {
	cfg, prof := m.cfg, m.prof
	st := m.in.ModelStats
	params := optimizer.DefaultParams()
	need := optimizer.Demand(m.in, cfg.CPU, cfg.NP, m.t, params)
	nodes := int64(prof.Nodes)

	var checks []memory.OOMError
	if prof.GPU != nil {
		checks = append(checks, memory.OOMError{Region: memory.Device, Scenario: memory.DeviceExhausted,
			Need: need.Device, Avail: prof.GPU.MemBytes,
			Detail: fmt.Sprintf("%d GPU replicas of %s", cfg.CPU, st.ModelName)})
	}
	checks = append(checks,
		// Scenario 3: oversized partitions exhaust Core Memory during joins.
		memory.OOMError{Region: memory.Core, Scenario: memory.LargePartition,
			Need: need.Core, Avail: cfg.Apportion.Core,
			Detail: fmt.Sprintf("np=%d leaves %s partitions", cfg.NP, memory.FormatBytes(need.Core/int64(cfg.CPU)))},
		// Scenario 2: UDF working sets exhaust User Memory.
		memory.OOMError{Region: memory.User, Scenario: memory.InsufficientUser,
			Need: need.User, Avail: cfg.Apportion.User,
			Detail: fmt.Sprintf("%d threads of %s + feature TensorLists", cfg.CPU, st.ModelName)})
	if cfg.Join == dataflow.BroadcastJoin {
		// Scenario 4: a broadcast the driver cannot hold.
		checks = append(checks, memory.OOMError{Region: memory.Driver, Scenario: memory.DriverOOM,
			Need: need.Driver, Avail: prof.DriverMem, Detail: "broadcast build of Tstr at the driver"})
	}
	// Scenario 1: the total resident set exceeds physical memory and the OS
	// kills the workload. Storage counts only up to its (evictable) budget.
	checks = append(checks, memory.OOMError{Region: memory.DLExecution, Scenario: memory.DLBlowup,
		Need:  params.MemOSReserved + need.User + params.MemCore + min(need.Storage, cfg.Apportion.Storage) + need.DL,
		Avail: prof.MemPerNode,
		Detail: fmt.Sprintf("%d DL replicas (%s each) push the resident set past system memory",
			cfg.CPU, memory.FormatBytes(st.MemBytes))})
	if !prof.Kind.SupportsSpill() {
		// A memory-only store has no spill path (the Ignite Eager crash).
		// Its exhaustion is reported cluster-wide.
		checks = append(checks, memory.OOMError{Region: memory.Storage, Scenario: memory.StorageExhausted,
			Need: need.Storage * nodes, Avail: cfg.Apportion.Storage * nodes,
			Detail: fmt.Sprintf("%s plan intermediates on a memory-only store", m.w.Plan.Kind)})
	}
	for _, c := range checks {
		if c.Need > c.Avail || c.Region == memory.Device && c.Need == c.Avail {
			return &c
		}
	}
	return nil
}

func validateRun(w Workload, cfg Config, prof Profile) error {
	switch {
	case w.Plan == nil:
		return fmt.Errorf("sim: nil plan")
	case w.Inputs.ModelStats == nil:
		return fmt.Errorf("sim: nil model stats")
	case w.Inputs.NumRows <= 0:
		return fmt.Errorf("sim: no rows")
	case cfg.CPU <= 0 || cfg.NP <= 0:
		return fmt.Errorf("sim: invalid config cpu=%d np=%d", cfg.CPU, cfg.NP)
	case prof.Nodes <= 0:
		return fmt.Errorf("sim: profile has no nodes")
	case w.TrainIters <= 0:
		return fmt.Errorf("sim: train iterations must be positive")
	}
	return nil
}
