package dl

import (
	"fmt"
	"sort"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/tensor"
)

// Failpoint sites (see internal/faultinject).
const (
	// FaultSessionBroadcast guards the driver's serialized-model broadcast
	// allocation in NewSession.
	FaultSessionBroadcast = "dl/session.broadcast"
	// FaultInferBatch guards the batch-slab acquisition at the start of
	// every inference batch, before any row of it is decoded or gathered.
	FaultInferBatch = "dl/infer.batch"
)

// Options configures a Session.
type Options struct {
	// Seed drives deterministic weight realization.
	Seed int64
	// Weights, when non-nil, are the model's weights as the caller already
	// realized them (core.Identity realizes once per run for the checksum and
	// the session both); Seed is then unused. The session borrows them: it
	// executes on these very slices and only ever reads them, the same
	// contract data.Catalog tables are shared under, so one *cnn.Weights may
	// serve any number of concurrent sessions.
	Weights *cnn.Weights
}

// Session binds one CNN model to a dataflow engine, with its memory
// footprint charged for the session's lifetime.
type Session struct {
	engine  *dataflow.Engine
	model   *cnn.Model
	weights *cnn.Weights

	replicaCharge int64 // per-node DL execution charge
	userCharge    int64 // per-node serialized-model charge
	closed        bool
}

// NewSession binds the model to the weights opts carries (or realizes them
// from opts.Seed) and charges its footprint: cpu × |f|_mem of DL Execution
// Memory and |f|_ser of User Memory per worker ("execution threads in a
// single worker have access to shared memory, the serialized CNN model need
// not be replicated", Section 4.3). It fails with a typed OOM when a worker
// cannot hold the replicas — the paper's DL-execution-blowup crash.
func NewSession(e *dataflow.Engine, model *cnn.Model, opts Options) (*Session, error) {
	stats, err := cnn.ComputeStats(model)
	if err != nil {
		return nil, err
	}
	weights := opts.Weights
	if weights == nil {
		if weights, err = model.RealizeWeights(opts.Seed); err != nil {
			return nil, err
		}
	}
	if len(weights.Layers) != model.NumLayers() {
		return nil, fmt.Errorf("dl: weights have %d layers, model %s has %d",
			len(weights.Layers), model.Name, model.NumLayers())
	}
	// The driver serializes the CNN once and broadcasts it to every worker
	// (Section 4.1, crash scenario 4). Workers here share the driver's address
	// space, so nothing is encoded or copied; what the paper's driver holds and
	// ships is |f|_ser, the serialized size the optimizer and the memory model
	// already price, and that is what the driver pool and the broadcast
	// counter are charged.
	if err := faultinject.Hit(FaultSessionBroadcast); err != nil {
		return nil, fmt.Errorf("dl: broadcast %s: %w", model.Name, err)
	}
	if err := e.DriverPool().Alloc(stats.SerializedBytes, fmt.Sprintf("serialized %s broadcast", model.Name)); err != nil {
		return nil, err
	}
	e.DriverPool().Free(stats.SerializedBytes)
	e.Counters().BytesBroadcast.Add(stats.SerializedBytes * int64(e.Config().Nodes))
	cores := e.Config().CoresPerNode
	s := &Session{
		engine:        e,
		model:         model,
		weights:       weights,
		replicaCharge: int64(cores) * stats.MemBytes,
		userCharge:    stats.SerializedBytes,
	}
	charged := 0
	for i := 0; i < e.Config().Nodes; i++ {
		if err := e.DLPool(i).Alloc(s.replicaCharge,
			fmt.Sprintf("%d replicas of %s (%s each)", cores, model.Name, memory.FormatBytes(stats.MemBytes))); err != nil {
			s.releaseCharges(charged, 0)
			return nil, err
		}
		charged++
	}
	userCharged := 0
	for i := 0; i < e.Config().Nodes; i++ {
		if err := e.UserPool(i).Alloc(s.userCharge,
			fmt.Sprintf("serialized %s", model.Name)); err != nil {
			s.releaseCharges(charged, userCharged)
			return nil, err
		}
		userCharged++
	}
	return s, nil
}

func (s *Session) releaseCharges(dlNodes, userNodes int) {
	for i := 0; i < dlNodes; i++ {
		s.engine.DLPool(i).Free(s.replicaCharge)
	}
	for i := 0; i < userNodes; i++ {
		s.engine.UserPool(i).Free(s.userCharge)
	}
}

// Close releases the session's memory charges. Safe to call twice.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.releaseCharges(s.engine.Config().Nodes, s.engine.Config().Nodes)
}

// InferenceSpec describes one inference pass over a table — the injected UDF
// of Section 3.3 ("Vista injects UDFs to run (partial) CNN inference, i.e.,
// f, f̂_l, g_l, and f̂_{i→j}").
type InferenceSpec struct {
	// From is the first model layer to apply.
	From int
	// FromImage selects the input: true decodes Row.Image into the image
	// tensor; false takes Row.Features.Get(InputIndex) as the intermediate
	// tensor from a previous partial-inference pass.
	FromImage  bool
	InputIndex int
	// EmitLayers are model layer indices (ascending, each >= From) whose
	// pooled+flattened feature vectors g_l(f̂_l(·)) are appended to the
	// output TensorList, in order.
	EmitLayers []int
	// KeepRawAt, when >= 0, appends the *unpooled* output of that layer
	// (which must equal the last computed layer) so a later stage can
	// continue partial inference from it. The raw tensor is appended after
	// all emitted features.
	KeepRawAt int
}

// validate checks the spec against the model and returns the final layer.
func (s *Session) validate(spec InferenceSpec) (int, error) {
	if len(spec.EmitLayers) == 0 && spec.KeepRawAt < 0 {
		return 0, fmt.Errorf("dl: inference spec emits nothing")
	}
	last := spec.KeepRawAt
	prev := spec.From - 1
	for _, l := range spec.EmitLayers {
		if l <= prev {
			return 0, fmt.Errorf("dl: emit layers must be ascending and >= From; got %v from %d", spec.EmitLayers, spec.From)
		}
		prev = l
		if l > last {
			last = l
		}
	}
	if spec.From < 0 || last >= s.model.NumLayers() {
		return 0, fmt.Errorf("dl: layer range [%d,%d] outside model %s (%d layers)",
			spec.From, last, s.model.Name, s.model.NumLayers())
	}
	if spec.KeepRawAt >= 0 && spec.KeepRawAt < last {
		return 0, fmt.Errorf("dl: KeepRawAt %d must be the last computed layer %d", spec.KeepRawAt, last)
	}
	return last, nil
}

// PartitionFunc builds the dataflow UDF running this inference spec. It cuts
// each partition into near-equal batches of at most cnn.InferenceBatch rows
// (9 rows run as 5 + 4) and advances each batch through the layer range
// segment by segment as one tensor, emitting pooled feature vectors at the
// requested layers; FLOPs are recorded on the task context. A row's outputs
// are bit for bit those it gets inferred alone.
func (s *Session) PartitionFunc(spec InferenceSpec) (dataflow.PartitionFunc, error) {
	last, err := s.validate(spec)
	if err != nil {
		return nil, err
	}
	emits := append([]int(nil), spec.EmitLayers...)
	sort.Ints(emits)
	perRowFLOPs, err := s.model.PartialFLOPs(spec.From, last)
	if err != nil {
		return nil, err
	}
	// The input of layer From: the image, or the raw carry a previous pass
	// kept at layer From−1.
	item, err := s.model.ShapeAt(spec.From - 1)
	if err != nil {
		return nil, err
	}

	return func(tc *dataflow.TaskContext, in []Row) ([]Row, error) {
		// Batches run in order on the partition's goroutine: the engine
		// already runs a stage's partitions side by side, and the optimizer
		// gives every run at least one partition per modeled core.
		out := make([]Row, len(in))
		nb := (len(in) + cnn.InferenceBatch - 1) / cnn.InferenceBatch
		for b, lo := 0, 0; b < nb; b++ {
			hi := lo + (len(in)-lo+nb-b-1)/(nb-b)
			if err := s.inferBatch(tc, in[lo:hi], out[lo:hi], spec, item, emits, last); err != nil {
				return nil, err
			}
			lo = hi
		}
		tc.AddFLOPs(perRowFLOPs * int64(len(in)))
		return out, nil
	}, nil
}

// inferBatch advances the rows' inputs, as one batch of item-shaped tensors,
// through the spec's layer range, and writes each row's emitted feature
// vectors (and raw carry) to the same row of out. The session's model and
// weights are read-only during inference: concurrent partitions (and
// sessions borrowing the same weights) share them.
func (s *Session) inferBatch(tc *dataflow.TaskContext, in, out []Row, spec InferenceSpec, item tensor.Shape, emits []int, last int) error {
	t, err := inputBatch(tc, in, spec, item)
	if err != nil {
		return err
	}
	// The output holds this pass's tensors only: the input tensor and any
	// other features a row arrived with are dropped.
	features := make([]*tensor.TensorList, len(in))
	for i := range features {
		features[i] = tensor.NewTensorList()
	}
	cursor := spec.From
	advance := func(to int) error {
		next, err := s.model.PartialInfer(s.weights, t, cursor, to)
		if err != nil {
			return err
		}
		// The batch before this segment is this call's own slab: the input
		// gathered above or the previous segment's output, each consumed.
		if !tensor.SameStorage(next, t) {
			tensor.Recycle(t)
		}
		t, cursor = next, to+1
		return nil
	}
	for _, emit := range emits {
		if err := advance(emit); err != nil {
			return err
		}
		vecs, err := cnn.FeatureVectors(t)
		if err != nil {
			return err
		}
		for i, v := range vecs {
			features[i].Append(v)
		}
	}
	if cursor <= last {
		if err := advance(last); err != nil {
			return err
		}
	}
	if spec.KeepRawAt >= 0 {
		for i := range features {
			features[i].Append(tensor.Item(t, i))
		}
	}
	tensor.Recycle(t)
	for i := range in {
		r := in[i] // shallow copy; payloads are replaced below
		r.Features = features[i]
		if spec.FromImage {
			r.Image = nil // decoded and consumed; drop the raw payload
		}
		out[i] = r
	}
	return nil
}

// Row aliases dataflow.Row for UDF signatures.
type Row = dataflow.Row

// inputBatch acquires a batch slab of len(rows) item-shaped tensors and
// fills it: each row's image decoded straight into its slot, or its raw
// carry copied in.
func inputBatch(tc *dataflow.TaskContext, rows []Row, spec InferenceSpec, item tensor.Shape) (*tensor.Tensor, error) {
	if err := faultinject.Hit(FaultInferBatch); err != nil {
		return nil, fmt.Errorf("dl: partition %d batch buffer: %w", tc.Part, err)
	}
	b := tensor.NewBatch(item, len(rows))
	for i := range rows {
		if err := fillSlot(b, i, &rows[i], spec); err != nil {
			tensor.Recycle(b)
			return nil, fmt.Errorf("dl: partition %d row %d: %w", tc.Part, rows[i].ID, err)
		}
	}
	return b, nil
}

// fillSlot writes row r's input into slot i of batch b.
func fillSlot(b *tensor.Tensor, i int, r *Row, spec InferenceSpec) error {
	if spec.FromImage {
		if r.Image == nil {
			return fmt.Errorf("row has no image payload")
		}
		return tensor.DecodeItem(r.Image, b, i)
	}
	if r.Features == nil || r.Features.Len() <= spec.InputIndex {
		return fmt.Errorf("row has no feature tensor at index %d", spec.InputIndex)
	}
	return tensor.SetItem(b, i, r.Features.Get(spec.InputIndex))
}
