package ml

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/tensor"
)

// linearlySeparableRows builds rows whose label is determined by the sign of
// a noisy linear function of the structured features.
func linearlySeparableRows(n, dim int, seed int64) []dataflow.Row {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	rows := make([]dataflow.Row, n)
	for i := range rows {
		x := make([]float32, dim)
		var z float64
		for j := range x {
			x[j] = float32(rng.NormFloat64())
			z += w[j] * float64(x[j])
		}
		label := float32(0)
		if z+0.3*rng.NormFloat64() > 0 {
			label = 1
		}
		rows[i] = dataflow.Row{ID: int64(i), Label: label, Structured: x}
	}
	return rows
}

// featureRows builds rows in the served training shape, [X, f_l] through
// StructuredPlusFeature(0): structured dim 0 is constant (the sigma = 1
// path) and the feature vector is post-ReLU, so about half its entries are
// exact zeros. Labels follow a noisy linear function of both.
func featureRows(n, structDim, featDim int, seed int64) []dataflow.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]dataflow.Row, n)
	for i := range rows {
		x := make([]float32, structDim)
		x[0] = 1
		var z float64
		for j := 1; j < structDim; j++ {
			x[j] = float32(rng.NormFloat64())
			z += float64(x[j])
		}
		f := make([]float32, featDim)
		for j := range f {
			if v := rng.NormFloat64(); v > 0 {
				f[j] = float32(v)
				z += 0.1 * v
			}
		}
		label := float32(0)
		if z+rng.NormFloat64() > 0.05*float64(featDim) {
			label = 1
		}
		rows[i] = dataflow.Row{ID: int64(i), Label: label, Structured: x,
			Features: tensor.NewTensorList(tensor.MustFromSlice(f, featDim))}
	}
	return rows
}

// referenceTrainLogReg is the fit as a per-row loop: every iteration
// re-extracts every row and standardizes each element through Predict and
// again for its gradient term. The design-block fit must match it bit for
// bit on one partition.
func referenceTrainLogReg(rows []dataflow.Row, extract FeatureFunc, dim int, cfg LogRegConfig) (*LogisticRegression, error) {
	model := &LogisticRegression{W: make([]float32, dim)}
	if cfg.Standardize {
		st := newStandardizer(dim)
		for i := range rows {
			x, _, err := extract(nil, &rows[i])
			if err != nil {
				return nil, err
			}
			st.add(x)
		}
		model.Mu, model.Sigma = st.finalize()
	}
	scaled := func(j int, v float32) float64 {
		if model.Mu == nil {
			return float64(v)
		}
		return (float64(v) - float64(model.Mu[j])) / float64(model.Sigma[j])
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		grad := make([]float64, dim)
		var gradB float64
		var count int64
		for i := range rows {
			x, y, err := extract(nil, &rows[i])
			if err != nil {
				return nil, err
			}
			diff := float64(model.Predict(x)) - float64(y)
			for j, xv := range x {
				grad[j] += diff * scaled(j, xv)
			}
			gradB += diff
			count++
		}
		inv := 1 / float64(count)
		for j := range model.W {
			w := float64(model.W[j])
			g := grad[j]*inv + cfg.Lambda*(cfg.Alpha*sign(w)+(1-cfg.Alpha)*w)
			model.W[j] = float32(w - cfg.LearningRate*g)
		}
		model.B = float32(float64(model.B) - cfg.LearningRate*gradB*inv)
	}
	return model, nil
}

// testEngine builds a small SparkLike engine with the given per-node User
// Memory.
func testEngine(t testing.TB, nodes int, user int64) *dataflow.Engine {
	e, err := dataflow.NewEngine(dataflow.Config{
		Nodes: nodes, CoresPerNode: 2, Kind: memory.SparkLike,
		Apportion: memory.Apportionment{
			User: user, Core: memory.MB(64), Storage: memory.MB(64), DLExecution: memory.MB(8),
		},
		DriverMemory: memory.MB(64),
		SpillDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
			return false
		}
	}
	return true
}

// sameModel reports whether two models are bit-identical: weights, bias and
// standardization.
func sameModel(a, b *LogisticRegression) bool {
	return math.Float32bits(a.B) == math.Float32bits(b.B) &&
		sameBits(a.W, b.W) && sameBits(a.Mu, b.Mu) && sameBits(a.Sigma, b.Sigma)
}

// TestTrainLogRegBitIdenticalToReference holds one-partition fits to the
// per-row reference. The row counts cover the gradient pass's four-row loop
// alone (4), its one-row remainder alone (1, 3) and both (5, 13, 90); the
// dims are odd.
func TestTrainLogRegBitIdenticalToReference(t *testing.T) {
	for _, shape := range []struct{ structDim, featDim int }{{5, 40}, {2, 5}} {
		dim := shape.structDim + shape.featDim
		all := featureRows(90, shape.structDim, shape.featDim, 11)
		extract := StructuredPlusFeature(0)
		for _, n := range []int{1, 3, 4, 5, 13, 90} {
			rows := all[:n]
			for _, standardize := range []bool{true, false} {
				cfg := DefaultLogRegConfig()
				cfg.Standardize = standardize
				want, err := referenceTrainLogReg(rows, extract, dim, cfg)
				if err != nil {
					t.Fatal(err)
				}
				local, err := TrainLogRegRows(rows, extract, dim, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sameModel(local, want) {
					t.Errorf("dim %d, %d rows, standardize=%v: TrainLogRegRows differs from the per-row reference", dim, n, standardize)
				}
				e := testEngine(t, 1, memory.MB(64))
				tb, err := e.CreateTable("t", rows, 1)
				if err != nil {
					t.Fatal(err)
				}
				dist, err := TrainLogReg(e, tb, nil, extract, dim, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sameModel(dist, want) {
					t.Errorf("dim %d, %d rows, standardize=%v: one-partition TrainLogReg differs from the per-row reference", dim, n, standardize)
				}
				if standardize && (want.Sigma[0] != 1 || want.Mu[0] != 1) {
					t.Errorf("constant dim: mu %v sigma %v, want 1 and 1", want.Mu[0], want.Sigma[0])
				}
			}
		}
	}
}

// TestFitIndependentOfPartitionOrder runs one six-partition fit with its
// partitions visited forward and again in reverse, as tasks may finish in
// either order: the driver merges moments and gradients in partition order,
// so both fits must be bit-identical. The first two partitions' rows share
// one label and carry 2^53 and -13·2^53 in structured dim 1: their moments
// and first gradients cancel exactly when added to each other first and
// swallow the other partitions' low bits when not, so a merge in visiting
// order fails.
func TestFitIndependentOfPartitionOrder(t *testing.T) {
	const structDim, featDim = 3, 22
	rows := featureRows(70, structDim, featDim, 14)
	var parts [][]dataflow.Row
	for _, n := range []int{13, 1, 4, 20, 3, 29} {
		parts, rows = append(parts, rows[:n]), rows[n:]
	}
	const big = 1 << 53
	for i := range parts[0] {
		parts[0][i].Structured[1], parts[0][i].Label = big, 1
	}
	parts[1][0].Structured[1], parts[1][0].Label = -13*big, 1
	visit := func(reverse bool) func(blockFunc) error {
		return func(fn blockFunc) error {
			for i := range parts {
				p := i
				if reverse {
					p = len(parts) - 1 - i
				}
				if err := fn(nil, p, parts[p]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, standardize := range []bool{true, false} { // order of the moments, of the gradients
		cfg := DefaultLogRegConfig()
		cfg.Standardize = standardize
		forward, err := fit(len(parts), visit(false), nil, StructuredPlusFeature(0), structDim+featDim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reverse, err := fit(len(parts), visit(true), nil, StructuredPlusFeature(0), structDim+featDim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameModel(forward, reverse) {
			t.Errorf("standardize=%v: reverse partition order changed the fit:\nforward %+v\nreverse %+v", standardize, forward, reverse)
		}
	}
}

// assertUserDrained fails unless every node's User pool is back to zero.
func assertUserDrained(t *testing.T, e *dataflow.Engine, nodes int) {
	t.Helper()
	for n := 0; n < nodes; n++ {
		if used := e.UserPool(n).Used(); used != 0 {
			t.Errorf("node %d User pool holds %d bytes after the fit", n, used)
		}
	}
}

func TestTrainLogRegReleasesDesignBlocks(t *testing.T) {
	const nodes, structDim, featDim = 2, 4, 16
	dim := structDim + featDim
	rows := featureRows(60, structDim, featDim, 12)

	t.Run("success", func(t *testing.T) {
		e := testEngine(t, nodes, memory.MB(64))
		tb, err := e.CreateTable("t", rows, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := TrainLogReg(e, tb, nil, StructuredPlusFeature(0), dim, DefaultLogRegConfig()); err != nil {
			t.Fatal(err)
		}
		assertUserDrained(t, e, nodes)
	})

	t.Run("extract error", func(t *testing.T) {
		e := testEngine(t, nodes, memory.MB(64))
		tb, err := e.CreateTable("t", rows, 4)
		if err != nil {
			t.Fatal(err)
		}
		bad := errors.New("bad row")
		extract := func(dst []float32, r *dataflow.Row) ([]float32, float32, error) {
			if r.ID == 57 {
				return nil, 0, bad
			}
			return StructuredPlusFeature(0)(dst, r)
		}
		if _, err := TrainLogReg(e, tb, nil, extract, dim, DefaultLogRegConfig()); !errors.Is(err, bad) {
			t.Fatalf("err = %v, want the extract error", err)
		}
		assertUserDrained(t, e, nodes)
	})

	t.Run("cancelled", func(t *testing.T) {
		e := testEngine(t, nodes, memory.MB(64))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e.SetContext(ctx)
		tb, err := e.CreateTable("t", rows, 4)
		if err != nil {
			t.Fatal(err)
		}
		extract := func(dst []float32, r *dataflow.Row) ([]float32, float32, error) {
			if r.ID == 59 { // the last row: every partition is being extracted
				cancel()
			}
			return StructuredPlusFeature(0)(dst, r)
		}
		if _, err := TrainLogReg(e, tb, nil, extract, dim, DefaultLogRegConfig()); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		assertUserDrained(t, e, nodes)
	})
}

func TestTrainLogRegDesignBlockOOM(t *testing.T) {
	// One node, one partition: the pool holds the task's input partition
	// but not the design block beside it.
	const structDim, featDim = 4, 32
	dim := structDim + featDim
	rows := featureRows(50, structDim, featDim, 13)
	var inBytes int64
	for i := range rows {
		inBytes += rows[i].MemBytes()
	}
	blockBytes := int64(len(rows)) * int64(dim+1) * 8
	for _, tc := range []struct {
		user int64
		oom  bool
	}{{inBytes + blockBytes - 1, true}, {inBytes + blockBytes, false}} {
		e := testEngine(t, 1, tc.user)
		tb, err := e.CreateTable("t", rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = TrainLogReg(e, tb, nil, StructuredPlusFeature(0), dim, DefaultLogRegConfig())
		if !tc.oom {
			if err != nil {
				t.Fatalf("User pool of input + block (%d bytes): %v", tc.user, err)
			}
			if peak := e.UserPool(0).Peak(); peak != inBytes+blockBytes {
				t.Errorf("User peak = %d, want input %d + design block %d", peak, inBytes, blockBytes)
			}
		} else if oom, ok := memory.IsOOM(err); !ok || oom.Scenario != memory.InsufficientUser {
			t.Fatalf("User pool one byte short of input + block: err = %v, want an InsufficientUser OOM", err)
		} else if oom.Detail != "design block of partition 0" {
			t.Errorf("detail = %q, want the design block of partition 0", oom.Detail)
		}
		assertUserDrained(t, e, 1)
	}
}

// TestTrainLogRegKeep holds a fit over a six-partition table with a held-out
// predicate to the nil-keep fit over a table that holds only the kept rows,
// in the same partitions and order: the same blocks in the same merge order,
// so bit-identical weights, bias and standardization. Partition 5 holds only
// held-out rows. On one core the User peak is every design block plus the
// largest input partition, so the peak net of that partition equals on both
// sides only if the design blocks are charged by kept rows.
func TestTrainLogRegKeep(t *testing.T) {
	const parts, structDim, featDim, testFraction = 6, 3, 22, 0.2
	dim := structDim + featDim
	heldOut := func(r *dataflow.Row) bool { return IsTestID(r.ID, testFraction) }
	keep := func(r *dataflow.Row) bool { return !heldOut(r) }
	var rows []dataflow.Row
	for i, r := range featureRows(400, structDim, featDim, 15) {
		r.ID = int64(i)
		if i%parts != parts-1 || heldOut(&r) {
			rows = append(rows, r)
		}
	}
	var keptRows []dataflow.Row
	var inBytes, keptBytes [parts]int64
	for i := range rows {
		p := rows[i].ID % parts
		inBytes[p] += rows[i].MemBytes()
		if keep(&rows[i]) {
			keptBytes[p] += rows[i].MemBytes()
			keptRows = append(keptRows, rows[i])
		}
	}
	kept := len(keptRows)
	if keptBytes[parts-1] != 0 || inBytes[parts-1] == 0 {
		t.Fatalf("partition %d: %d input bytes, %d kept; want a partition of held-out rows only", parts-1, inBytes[parts-1], keptBytes[parts-1])
	}
	engine := func() *dataflow.Engine {
		e, err := dataflow.NewEngine(dataflow.Config{
			Nodes: 1, CoresPerNode: 1, Kind: memory.SparkLike,
			Apportion: memory.Apportionment{
				User: memory.MB(64), Core: memory.MB(64), Storage: memory.MB(64), DLExecution: memory.MB(8),
			},
			DriverMemory: memory.MB(64),
			SpillDir:     t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	blockBytes := int64(kept) * int64(dim+1) * 8
	for _, standardize := range []bool{true, false} {
		cfg := DefaultLogRegConfig()
		cfg.Standardize = standardize

		e := engine()
		tb, err := e.CreateTable("t", rows, parts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TrainLogReg(e, tb, keep, StructuredPlusFeature(0), dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotBlocks := e.UserPool(0).Peak() - slices.Max(inBytes[:])
		assertUserDrained(t, e, 1)

		// CreateTable hashes on ID % parts, as the keep fit's table did, so
		// the reference partitions hold the kept rows in the same order.
		ref := engine()
		split, err := ref.CreateTable("kept", keptRows, parts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := TrainLogReg(ref, split, nil, StructuredPlusFeature(0), dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks := ref.UserPool(0).Peak() - slices.Max(keptBytes[:])

		if !sameModel(got, want) {
			t.Errorf("standardize=%v: the keep fit differs from the fit over the kept rows", standardize)
		}
		if gotBlocks != wantBlocks || gotBlocks != blockBytes {
			t.Errorf("standardize=%v: design blocks charged %d bytes with keep, %d over the kept rows, want %d (%d kept rows)",
				standardize, gotBlocks, wantBlocks, blockBytes, kept)
		}
	}

	e := engine()
	tb, err := e.CreateTable("t", rows, parts)
	if err != nil {
		t.Fatal(err)
	}
	none := func(*dataflow.Row) bool { return false }
	if _, err := TrainLogReg(e, tb, none, StructuredPlusFeature(0), dim, DefaultLogRegConfig()); err == nil || err.Error() != "ml: no training rows" {
		t.Errorf("keep rejecting every row: err = %v, want ml: no training rows", err)
	}
	assertUserDrained(t, e, 1)
}

func TestLogRegLearnsLinearSeparation(t *testing.T) {
	rows := linearlySeparableRows(600, 8, 1)
	train, test := SplitByID(rows, 0.25)
	cfg := LogRegConfig{Iterations: 60, LearningRate: 0.8, Alpha: 0.5, Lambda: 0.001}
	m, err := TrainLogRegRows(train, StructuredOnly(), 8, cfg)
	if err != nil {
		t.Fatalf("TrainLogRegRows: %v", err)
	}
	met, err := Evaluate(m, test, StructuredOnly())
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.8 {
		t.Errorf("accuracy = %.3f, want >= 0.8 on separable data", met.Accuracy)
	}
	if met.F1 <= 0 {
		t.Error("F1 = 0 on learnable data")
	}
}

func TestDistributedLogRegMatchesLocal(t *testing.T) {
	rows := linearlySeparableRows(400, 6, 2)
	e, err := dataflow.NewEngine(dataflow.Config{
		Nodes: 2, CoresPerNode: 2, Kind: memory.SparkLike,
		Apportion: memory.Apportionment{
			User: memory.MB(64), Core: memory.MB(64), Storage: memory.MB(64), DLExecution: memory.MB(8),
		},
		DriverMemory: memory.MB(64),
		SpillDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tb, err := e.CreateTable("t", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LogRegConfig{Iterations: 20, LearningRate: 0.5, Alpha: 0.5, Lambda: 0.01}
	dist, err := TrainLogReg(e, tb, nil, StructuredOnly(), 6, cfg)
	if err != nil {
		t.Fatalf("TrainLogReg: %v", err)
	}
	local, err := TrainLogRegRows(rows, StructuredOnly(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Full-batch GD is order-independent: distributed and local training
	// must agree to float tolerance.
	for j := range dist.W {
		if d := float64(dist.W[j] - local.W[j]); math.Abs(d) > 1e-3 {
			t.Fatalf("weight %d differs: dist %v vs local %v", j, dist.W[j], local.W[j])
		}
	}
	if e.Counters().Snapshot().FLOPs <= 0 {
		t.Error("training FLOPs not recorded")
	}
}

func TestTrainLogRegDriverOOM(t *testing.T) {
	// Gradient aggregation over an enormous feature space exceeds driver
	// memory — the Section 4.1 scenario 4 path in distributed training.
	rows := make([]dataflow.Row, 4)
	const dim = 1 << 16
	for i := range rows {
		rows[i] = dataflow.Row{ID: int64(i), Label: float32(i % 2), Structured: make([]float32, dim)}
	}
	e, err := dataflow.NewEngine(dataflow.Config{
		Nodes: 1, CoresPerNode: 1, Kind: memory.SparkLike,
		Apportion: memory.Apportionment{
			User: memory.MB(64), Core: memory.MB(64), Storage: memory.MB(64),
		},
		DriverMemory: 1024, // 1 KB driver: cannot hold a 512 KB gradient
		SpillDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tb, err := e.CreateTable("wide", rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = TrainLogReg(e, tb, nil, StructuredOnly(), dim, DefaultLogRegConfig())
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("expected driver OOM, got %v", err)
	}
	if oom.Scenario != memory.DriverOOM {
		t.Errorf("scenario = %v, want driver-oom", oom.Scenario)
	}
}

func TestTrainLogRegValidation(t *testing.T) {
	rows := linearlySeparableRows(10, 3, 3)
	if _, err := TrainLogRegRows(rows, StructuredOnly(), 0, DefaultLogRegConfig()); err == nil {
		t.Error("accepted dim 0")
	}
	if _, err := TrainLogRegRows(nil, StructuredOnly(), 3, DefaultLogRegConfig()); err == nil {
		t.Error("accepted empty training set")
	}
	if _, err := TrainLogRegRows(rows, StructuredOnly(), 5, DefaultLogRegConfig()); err == nil {
		t.Error("accepted wrong dim")
	}
	bad := LogRegConfig{Iterations: 0}
	e, err := dataflow.NewEngine(dataflow.Config{Nodes: 1, CoresPerNode: 1,
		Apportion: memory.Apportionment{User: memory.MB(8), Core: memory.MB(8), Storage: memory.MB(8)}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tb, err := e.CreateTable("t", rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainLogReg(e, tb, nil, StructuredOnly(), 3, bad); err == nil {
		t.Error("accepted zero iterations")
	}
}

func TestFeatureFuncs(t *testing.T) {
	r := dataflow.Row{
		ID: 1, Label: 1,
		Structured: []float32{1, 2},
		Features:   tensor.NewTensorList(tensor.MustFromSlice([]float32{3, 4, 5}, 3)),
	}
	x, y, err := StructuredOnly()(nil, &r)
	if err != nil || y != 1 || len(x) != 2 {
		t.Fatalf("StructuredOnly: %v %v %v", x, y, err)
	}
	x, _, err = StructuredPlusFeature(0)(nil, &r)
	if err != nil || len(x) != 5 || x[2] != 3 {
		t.Fatalf("StructuredPlusFeature: %v %v", x, err)
	}
	if _, _, err := StructuredPlusFeature(5)(nil, &r); err == nil {
		t.Error("out-of-range feature index accepted")
	}
	bare := dataflow.Row{ID: 2}
	if _, _, err := StructuredPlusFeature(0)(nil, &bare); err == nil {
		t.Error("missing features accepted")
	}
	// Rank-2 feature tensors are rejected.
	r2 := dataflow.Row{Features: tensor.NewTensorList(tensor.New(2, 2))}
	if _, _, err := StructuredPlusFeature(0)(nil, &r2); err == nil {
		t.Error("rank-2 feature tensor accepted")
	}
}

func TestStructuredPlusConcat(t *testing.T) {
	r := dataflow.Row{
		ID: 1, Label: 1,
		Structured: []float32{1, 2},
		Features: tensor.NewTensorList(
			tensor.MustFromSlice([]float32{3, 4}, 2),
			tensor.MustFromSlice([]float32{5}, 1),
		),
	}
	x, y, err := StructuredPlusConcat(0, 1)(nil, &r)
	if err != nil || y != 1 {
		t.Fatalf("concat: %v %v", x, err)
	}
	want := []float32{1, 2, 3, 4, 5}
	if len(x) != len(want) {
		t.Fatalf("len = %d, want %d", len(x), len(want))
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if _, _, err := StructuredPlusConcat(0, 5)(nil, &r); err == nil {
		t.Error("out-of-range index accepted")
	}
	r2 := dataflow.Row{Features: tensor.NewTensorList(tensor.New(2, 2))}
	if _, _, err := StructuredPlusConcat(0)(nil, &r2); err == nil {
		t.Error("rank-2 tensor accepted")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	// A fixed model: predict positive when x[0] >= 0.
	m := &LogisticRegression{W: []float32{10}, B: 0}
	rows := []dataflow.Row{
		{ID: 1, Label: 1, Structured: []float32{1}},  // TP
		{ID: 2, Label: 0, Structured: []float32{1}},  // FP
		{ID: 3, Label: 0, Structured: []float32{-1}}, // TN
		{ID: 4, Label: 1, Structured: []float32{-1}}, // FN
	}
	met, err := Evaluate(m, rows, StructuredOnly())
	if err != nil {
		t.Fatal(err)
	}
	if met.N != 4 || met.Accuracy != 0.5 || met.Precision != 0.5 || met.Recall != 0.5 || met.F1 != 0.5 {
		t.Errorf("metrics = %+v", met)
	}
	empty, err := Evaluate(m, nil, StructuredOnly())
	if err != nil || empty.N != 0 {
		t.Errorf("empty evaluate: %+v, %v", empty, err)
	}
}

func TestSplitByIDDeterministicAndDisjoint(t *testing.T) {
	rows := linearlySeparableRows(1000, 2, 4)
	tr1, te1 := SplitByID(rows, 0.2)
	tr2, te2 := SplitByID(rows, 0.2)
	if len(tr1) != len(tr2) || len(te1) != len(te2) {
		t.Fatal("split not deterministic")
	}
	if len(tr1)+len(te1) != 1000 {
		t.Fatal("split lost rows")
	}
	frac := float64(len(te1)) / 1000
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("test fraction = %.3f, want ~0.2", frac)
	}
	seen := map[int64]bool{}
	for _, r := range te1 {
		seen[r.ID] = true
	}
	for _, r := range tr1 {
		if seen[r.ID] {
			t.Fatalf("row %d in both splits", r.ID)
		}
	}
}

func TestDecisionTreeLearnsThreshold(t *testing.T) {
	// Label = x[1] > 0.5: a single split suffices.
	rng := rand.New(rand.NewSource(5))
	rows := make([]dataflow.Row, 400)
	for i := range rows {
		x := []float32{rng.Float32(), rng.Float32()}
		label := float32(0)
		if x[1] > 0.5 {
			label = 1
		}
		rows[i] = dataflow.Row{ID: int64(i), Label: label, Structured: x}
	}
	tree, err := TrainTree(rows, StructuredOnly(), TreeConfig{MaxDepth: 3, MinLeafSize: 5})
	if err != nil {
		t.Fatalf("TrainTree: %v", err)
	}
	met, err := Evaluate(tree, rows, StructuredOnly())
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.95 {
		t.Errorf("tree accuracy = %.3f, want >= 0.95 on axis-aligned data", met.Accuracy)
	}
	if nodeDepth(tree.root) < 2 {
		t.Error("tree did not split")
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	rows := []dataflow.Row{
		{ID: 1, Label: 1, Structured: []float32{0}},
		{ID: 2, Label: 1, Structured: []float32{1}},
	}
	tree, err := TrainTree(rows, StructuredOnly(), TreeConfig{MaxDepth: 3, MinLeafSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nodeDepth(tree.root) != 1 {
		t.Error("pure labels should produce a single leaf")
	}
	if tree.Predict([]float32{0.5}) != 1 {
		t.Error("pure-positive leaf should predict 1")
	}
}

func TestTrainTreeValidation(t *testing.T) {
	if _, err := TrainTree(nil, StructuredOnly(), DefaultTreeConfig()); err == nil {
		t.Error("accepted empty rows")
	}
	rows := linearlySeparableRows(10, 2, 6)
	if _, err := TrainTree(rows, StructuredOnly(), TreeConfig{MaxDepth: 0}); err == nil {
		t.Error("accepted zero depth")
	}
	mixed := []dataflow.Row{
		{ID: 1, Structured: []float32{1}},
		{ID: 2, Structured: []float32{1, 2}},
	}
	if _, err := TrainTree(mixed, StructuredOnly(), DefaultTreeConfig()); err == nil {
		t.Error("accepted inconsistent dims")
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; an MLP with a hidden layer solves it.
	var rows []dataflow.Row
	id := int64(0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x := []float32{float32(a) + 0.1*rng.Float32(), float32(b) + 0.1*rng.Float32()}
		label := float32(a ^ b)
		rows = append(rows, dataflow.Row{ID: id, Label: label, Structured: x})
		id++
	}
	cfg := MLPConfig{Hidden: []int{8}, Iterations: 300, BatchSize: 16, LearningRate: 0.5, Seed: 3}
	m, err := TrainMLP(rows, StructuredOnly(), 2, cfg)
	if err != nil {
		t.Fatalf("TrainMLP: %v", err)
	}
	met, err := Evaluate(m, rows, StructuredOnly())
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.9 {
		t.Errorf("MLP accuracy on XOR = %.3f, want >= 0.9", met.Accuracy)
	}
}

func TestMLPValidation(t *testing.T) {
	if _, err := NewMLP(0, DefaultMLPConfig()); err == nil {
		t.Error("accepted dim 0")
	}
	rows := linearlySeparableRows(10, 2, 8)
	if _, err := TrainMLP(rows, StructuredOnly(), 2, MLPConfig{Hidden: []int{4}, Iterations: 0, BatchSize: 8}); err == nil {
		t.Error("accepted zero iterations")
	}
	if _, err := TrainMLP(nil, StructuredOnly(), 2, DefaultMLPConfig()); err == nil {
		t.Error("accepted empty rows")
	}
	if _, err := TrainMLP(rows, StructuredOnly(), 7, DefaultMLPConfig()); err == nil {
		t.Error("accepted wrong dim")
	}
}

func TestLogRegPredictShortInput(t *testing.T) {
	// Predict tolerates x shorter than W (treats missing as zero) rather
	// than panicking; training validates dims strictly.
	m := &LogisticRegression{W: []float32{1, 1, 1}, B: 0}
	if p := m.Predict([]float32{1}); p <= 0.5 {
		t.Errorf("short-input predict = %v", p)
	}
}
