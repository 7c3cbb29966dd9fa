package dl

import (
	"math/rand"
	"testing"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/tensor"
)

func testEngine(t *testing.T, dlMem, userMem int64) *dataflow.Engine {
	t.Helper()
	e, err := dataflow.NewEngine(dataflow.Config{
		Nodes:        2,
		CoresPerNode: 2,
		Kind:         memory.SparkLike,
		Apportion: memory.Apportionment{
			DLExecution: dlMem,
			User:        userMem,
			Core:        memory.MB(64),
			Storage:     memory.MB(128),
		},
		DriverMemory: memory.MB(128),
		SpillDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func imageRows(t *testing.T, m *cnn.Model, n int) []dataflow.Row {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	rows := make([]dataflow.Row, n)
	for i := range rows {
		img := tensor.New(m.InputShape...)
		for j := range img.Data() {
			img.Data()[j] = rng.Float32()
		}
		rows[i] = dataflow.Row{ID: int64(i), Label: float32(i % 2),
			Structured: []float32{float32(i)}, Image: tensor.Encode(img)}
	}
	return rows
}

func TestNewSessionChargesAndReleases(t *testing.T) {
	e := testEngine(t, memory.MB(64), memory.MB(64))
	s, err := NewSession(e, cnn.TinyAlexNet(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if e.DLPool(0).Used() <= 0 || e.UserPool(0).Used() <= 0 {
		t.Error("session did not charge DL/User pools")
	}
	s.Close()
	if e.DLPool(0).Used() != 0 || e.UserPool(0).Used() != 0 {
		t.Error("Close did not release charges")
	}
	s.Close() // idempotent
}

func TestNewSessionDLBlowup(t *testing.T) {
	// Tiny DL region: cpu × |f|_mem cannot fit — crash scenario 1.
	e := testEngine(t, 1024, memory.MB(64))
	_, err := NewSession(e, cnn.TinyAlexNet(), Options{Seed: 1})
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("expected DL blowup OOM, got %v", err)
	}
	if oom.Scenario != memory.DLBlowup {
		t.Errorf("scenario = %v, want dl-execution-blowup", oom.Scenario)
	}
	// Failed construction must not leak charges.
	for i := 0; i < 2; i++ {
		if e.DLPool(i).Used() != 0 || e.UserPool(i).Used() != 0 {
			t.Errorf("node %d leaked charges after failed session", i)
		}
	}
}

func TestInferenceFromImageEmitsFeatures(t *testing.T) {
	e := testEngine(t, memory.MB(64), memory.MB(64))
	m := cnn.TinyAlexNet()
	s, err := NewSession(e, m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tb, err := e.CreateTable("img", imageRows(t, m, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	fc7 := m.FeatureLayers[2] // fc7
	udf, err := s.PartitionFunc(InferenceSpec{
		From: 0, FromImage: true,
		EmitLayers: []int{fc7.LayerIndex},
		KeepRawAt:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.MapPartitions("feat", tb, udf)
	if err != nil {
		t.Fatalf("inference: %v", err)
	}
	rows, err := e.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	wantDim, err := m.FeatureDim(fc7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Features == nil || r.Features.Len() != 1 {
			t.Fatalf("row %d: expected 1 feature tensor, got %+v", r.ID, r.Features)
		}
		if r.Features.Get(0).NumElements() != wantDim {
			t.Fatalf("row %d: feature dim %d, want %d", r.ID, r.Features.Get(0).NumElements(), wantDim)
		}
		if r.Image != nil {
			t.Fatal("image payload should be dropped after decoding")
		}
		if r.Structured == nil {
			t.Fatal("structured payload lost")
		}
	}
	if e.Counters().Snapshot().FLOPs <= 0 {
		t.Error("inference FLOPs not recorded")
	}
}

func TestStagedInferenceMatchesDirect(t *testing.T) {
	// Running conv5 with KeepRaw, then continuing fc6..fc8 from the raw
	// tensor, must equal a single pass emitting the same layers — the
	// correctness property behind the Staged plan (Figure 5(E)).
	e := testEngine(t, memory.MB(64), memory.MB(64))
	m := cnn.TinyAlexNet()
	s, err := NewSession(e, m, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rows := imageRows(t, m, 6)
	tb, err := e.CreateTable("img", rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	conv5 := m.FeatureLayers[0]
	fc6 := m.FeatureLayers[1]

	// One-shot: emit conv5 and fc6 in a single pass (Eager style).
	oneShot, err := s.PartitionFunc(InferenceSpec{
		From: 0, FromImage: true,
		EmitLayers: []int{conv5.LayerIndex, fc6.LayerIndex},
		KeepRawAt:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eagerT, err := e.MapPartitions("eager", tb, oneShot)
	if err != nil {
		t.Fatal(err)
	}
	eagerRows, err := e.Collect(eagerT)
	if err != nil {
		t.Fatal(err)
	}

	// Staged: first pass emits conv5 and keeps the raw conv5 tensor...
	stage1, err := s.PartitionFunc(InferenceSpec{
		From: 0, FromImage: true,
		EmitLayers: []int{conv5.LayerIndex},
		KeepRawAt:  conv5.LayerIndex,
	})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := e.MapPartitions("s1", tb, stage1)
	if err != nil {
		t.Fatal(err)
	}
	// ...second pass continues from the raw tensor (index 1) to fc6.
	stage2, err := s.PartitionFunc(InferenceSpec{
		From: conv5.LayerIndex + 1, FromImage: false, InputIndex: 1,
		EmitLayers: []int{fc6.LayerIndex},
		KeepRawAt:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.MapPartitions("s2", t1, stage2)
	if err != nil {
		t.Fatal(err)
	}
	stagedRows, err := e.Collect(t2)
	if err != nil {
		t.Fatal(err)
	}

	if len(eagerRows) != len(stagedRows) {
		t.Fatalf("row counts differ: %d vs %d", len(eagerRows), len(stagedRows))
	}
	for i := range eagerRows {
		eagerFC6 := eagerRows[i].Features.Get(1)
		stagedFC6 := stagedRows[i].Features.Get(0)
		if !eagerFC6.Shape().Equal(stagedFC6.Shape()) {
			t.Fatalf("row %d fc6 shapes differ", i)
		}
		for j := range eagerFC6.Data() {
			d := eagerFC6.Data()[j] - stagedFC6.Data()[j]
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("row %d fc6[%d]: eager %v vs staged %v",
					i, j, eagerFC6.Data()[j], stagedFC6.Data()[j])
			}
		}
	}
}

func TestInferenceSpecValidation(t *testing.T) {
	e := testEngine(t, memory.MB(64), memory.MB(64))
	s, err := NewSession(e, cnn.TinyAlexNet(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []InferenceSpec{
		{From: 0, EmitLayers: nil, KeepRawAt: -1},         // emits nothing
		{From: 5, EmitLayers: []int{3}, KeepRawAt: -1},    // emit below From
		{From: 0, EmitLayers: []int{4, 2}, KeepRawAt: -1}, // not ascending
		{From: 0, EmitLayers: []int{99}, KeepRawAt: -1},   // beyond model
		{From: -1, EmitLayers: []int{2}, KeepRawAt: -1},   // negative From
		{From: 0, EmitLayers: []int{6}, KeepRawAt: 3},     // raw not last
	}
	for i, spec := range cases {
		if _, err := s.PartitionFunc(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, spec)
		}
	}
}

func TestInferenceMissingPayloads(t *testing.T) {
	e := testEngine(t, memory.MB(64), memory.MB(64))
	m := cnn.TinyAlexNet()
	s, err := NewSession(e, m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Rows without images.
	tb, err := e.CreateTable("noimg", []dataflow.Row{{ID: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	udf, err := s.PartitionFunc(InferenceSpec{From: 0, FromImage: true,
		EmitLayers: []int{2}, KeepRawAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MapPartitions("x", tb, udf); err == nil {
		t.Error("inference on image-less rows succeeded")
	}
	// Rows without the expected intermediate feature tensor.
	udf2, err := s.PartitionFunc(InferenceSpec{From: 2, FromImage: false,
		InputIndex: 0, EmitLayers: []int{4}, KeepRawAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MapPartitions("y", tb, udf2); err == nil {
		t.Error("inference on feature-less rows succeeded")
	}
}

func TestInferenceWrongImageShape(t *testing.T) {
	e := testEngine(t, memory.MB(64), memory.MB(64))
	m := cnn.TinyAlexNet()
	s, err := NewSession(e, m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := tensor.Encode(tensor.New(3, 8, 8)) // wrong resolution
	tb, err := e.CreateTable("bad", []dataflow.Row{{ID: 1, Image: blob}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	udf, err := s.PartitionFunc(InferenceSpec{From: 0, FromImage: true,
		EmitLayers: []int{2}, KeepRawAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MapPartitions("x", tb, udf); err == nil {
		t.Error("shape-incompatible image accepted")
	}
}
