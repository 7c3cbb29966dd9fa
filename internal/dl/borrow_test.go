package dl

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/tensor"
)

// emitAll runs one inference pass over rows in the given number of
// partitions and returns each row's emitted feature tensors by row ID.
func emitAll(t *testing.T, s *Session, e *dataflow.Engine, name string, rows []dataflow.Row, parts int) map[int64]*tensor.TensorList {
	t.Helper()
	m := s.model
	var emits []int
	for _, fl := range m.FeatureLayers {
		emits = append(emits, fl.LayerIndex)
	}
	udf, err := s.PartitionFunc(InferenceSpec{From: 0, FromImage: true, EmitLayers: emits, KeepRawAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.CreateTable(name+".in", rows, parts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.MapPartitions(name, tb, udf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]*tensor.TensorList, len(got))
	for _, r := range got {
		byID[r.ID] = r.Features
	}
	return byID
}

// requireSameFeatures fails unless every row of got carries bit-identical
// feature tensors to the same row of want.
func requireSameFeatures(t *testing.T, what string, got, want map[int64]*tensor.TensorList) {
	t.Helper()
	for id, feats := range got {
		for j := 0; j < feats.Len(); j++ {
			g, w := feats.Get(j).Data(), want[id].Get(j).Data()
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("%s: row %d feature %d[%d] = %v, want %v", what, id, j, i, g[i], w[i])
				}
			}
		}
	}
}

// TestRowFeaturesIndependentOfBatchAndWorkers pins the determinism the
// feature store and shared inference rest on: a row's emitted features are
// bit-identical whether it is inferred alone or inside a 6-row partition.
// Every element of C is one sum in one order; how rows are batched cannot
// change it.
func TestRowFeaturesIndependentOfBatchAndWorkers(t *testing.T) {
	for _, m := range []*cnn.Model{cnn.TinyAlexNet(), cnn.TinyResNet50()} {
		e := testEngine(t, memory.MB(256), memory.MB(64))
		s, err := NewSession(e, m, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rows := imageRows(t, m, 6)
		want := emitAll(t, s, e, "batch", rows, 1)
		requireSameFeatures(t, m.Name+" row alone vs the 6-row partition",
			emitAll(t, s, e, "alone", rows[2:3], 1), want)
		s.Close()
	}
}

// TestSessionsBorrowWeightsReadOnly runs two sessions over one *cnn.Weights
// at once (under -race in CI): a session executes on the slices it was
// handed, so it must never write them, and both must emit what a session
// realizing its own weights from the same seed emits.
func TestSessionsBorrowWeightsReadOnly(t *testing.T) {
	m := cnn.TinyResNet50()
	shared, err := m.RealizeWeights(9)
	if err != nil {
		t.Fatal(err)
	}
	before := cnn.WeightsChecksum(shared)
	rows := imageRows(t, m, 4)

	own := testEngine(t, memory.MB(256), memory.MB(64))
	ownSess, err := NewSession(own, m, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := emitAll(t, ownSess, own, "own", rows, 2)
	ownSess.Close()

	var wg sync.WaitGroup
	results := make([]map[int64]*tensor.TensorList, 2)
	for g := range results {
		e := testEngine(t, memory.MB(256), memory.MB(64))
		s, err := NewSession(e, m, Options{Weights: shared})
		if err != nil {
			t.Fatal(err)
		}
		if s.weights != shared {
			t.Fatal("session copied the weights it was handed")
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer s.Close()
			results[g] = emitAll(t, s, e, fmt.Sprintf("borrow%d", g), rows, 2)
		}(g)
	}
	wg.Wait()
	if after := cnn.WeightsChecksum(shared); after != before {
		t.Fatalf("borrowed weights changed: checksum %s -> %s", before, after)
	}
	for g, got := range results {
		requireSameFeatures(t, fmt.Sprintf("borrowing session %d vs an own-weights session", g), got, want)
	}
}

// TestSessionBroadcastChargesSerializedSize pins what the borrowed-weights
// session charges for the broadcast it no longer performs byte by byte:
// |f|_ser per node on the counter, nothing left on the driver pool, and the
// fault site still in the path.
func TestSessionBroadcastChargesSerializedSize(t *testing.T) {
	e := testEngine(t, memory.MB(64), memory.MB(64))
	m := cnn.TinyVGG16()
	st, err := cnn.ComputeStats(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(e, m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := e.Counters().Snapshot().BytesBroadcast, st.SerializedBytes*int64(e.Config().Nodes); got != want {
		t.Errorf("BytesBroadcast = %d, want |f|_ser x nodes = %d", got, want)
	}
	if used := e.DriverPool().Used(); used != 0 {
		t.Errorf("driver pool still holds %d bytes after the broadcast", used)
	}
	short := &cnn.Weights{Layers: make([]*cnn.LayerWeights, m.NumLayers()-1)}
	if _, err := NewSession(e, m, Options{Weights: short}); err == nil {
		t.Error("weights with the wrong layer count accepted")
	}
}
