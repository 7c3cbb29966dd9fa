package dl

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/tensor"
)

// goldenImage is the image TestFeatureGoldens hashes every tiny model's
// feature layers over (weight seed 7).
func goldenImage(m *cnn.Model) *tensor.Tensor {
	x := tensor.New(m.InputShape...)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	return x
}

// segmentSpecs returns the passes a staged plan runs over m: the image to
// the first feature layer, then each later feature layer alone from the raw
// carry the pass before kept. Every pass emits its layer's vector and keeps
// its raw output, so each row leaves a pass with [vector, carry].
func segmentSpecs(m *cnn.Model) []InferenceSpec {
	specs := make([]InferenceSpec, len(m.FeatureLayers))
	for k, fl := range m.FeatureLayers {
		specs[k] = InferenceSpec{From: 0, FromImage: true, EmitLayers: []int{fl.LayerIndex}, KeepRawAt: fl.LayerIndex}
		if k > 0 {
			specs[k].From, specs[k].FromImage, specs[k].InputIndex = m.FeatureLayers[k-1].LayerIndex+1, false, 1
		}
	}
	return specs
}

// runSegments runs every segment over rows in parts partitions, each pass
// reading the one before, and returns each row's outputs per segment.
func runSegments(t *testing.T, s *Session, e *dataflow.Engine, rows []dataflow.Row, parts int) map[int64][]*tensor.TensorList {
	t.Helper()
	tb, err := e.CreateTable("rows", rows, parts)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int64][]*tensor.TensorList, len(rows))
	for _, spec := range segmentSpecs(s.model) {
		udf, err := s.PartitionFunc(spec)
		if err != nil {
			t.Fatal(err)
		}
		if tb, err = e.MapPartitions("segment", tb, udf); err != nil {
			t.Fatal(err)
		}
		out, err := e.Collect(tb)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out {
			got[r.ID] = append(got[r.ID], r.Features)
		}
	}
	return got
}

// sameBits fails unless got and want hold the same shape and float32 bits.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, v, want.Data()[i])
		}
	}
}

// TestBatchedRowsMatchAlone holds every tiny roster model's batched
// inference to the batch of one, bit for bit, on every segment a plan runs:
// each row's emitted vector and raw carry from batches of 3 and 8 and from a
// 9-row partition (batches of 5 and 4) equal the row's inferred alone. The
// golden image of TestFeatureGoldens sits at a middle slot of every batch
// and at the last slot of the ragged one, and its batch-of-1 carries are
// the very tensors that test hashes.
func TestBatchedRowsMatchAlone(t *testing.T) {
	for _, name := range []string{"tiny-alexnet", "tiny-vgg16", "tiny-resnet50", "tiny-densenet"} {
		t.Run(name, func(t *testing.T) {
			m, err := cnn.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := m.RealizeWeights(7)
			if err != nil {
				t.Fatal(err)
			}
			e := testEngine(t, memory.MB(256), memory.MB(256))
			s, err := NewSession(e, m, Options{Weights: w})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			golden := goldenImage(m)
			rows := imageRows(t, m, 9)
			rows[1].Image = tensor.Encode(golden)
			rows[8].Image = rows[1].Image

			alone := runSegments(t, s, e, rows, len(rows))
			x := golden
			for k, fl := range m.FeatureLayers {
				from := 0
				if k > 0 {
					from = m.FeatureLayers[k-1].LayerIndex + 1
				}
				if x, err = m.PartialInfer(w, x, from, fl.LayerIndex); err != nil {
					t.Fatal(err)
				}
				for _, id := range []int64{1, 8} {
					sameBits(t, fl.Name+" carry of the golden row alone", alone[id][k].Get(1), x)
				}
			}

			for _, n := range []int{3, 8, 9} {
				for id, segs := range runSegments(t, s, e, rows[:n], 1) {
					for k, feats := range segs {
						if feats.Len() != 2 {
							t.Fatalf("row %d segment %d: %d outputs, want vector and carry", id, k, feats.Len())
						}
						for j := 0; j < 2; j++ {
							sameBits(t, m.FeatureLayers[k].Name+" output of a batched row", feats.Get(j), alone[id][k].Get(j))
						}
					}
				}
			}
		})
	}
}

// TestInferBatchFaultOnSecondBatch arms the batch-slab site on the second
// batch of a two-batch partition: the pass fails with the injected fault,
// and closing the session drains the DL and User pools.
func TestInferBatchFaultOnSecondBatch(t *testing.T) {
	e := testEngine(t, memory.MB(64), memory.MB(64))
	m := cnn.TinyAlexNet()
	s, err := NewSession(e, m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.CreateTable("img", imageRows(t, m, cnn.InferenceBatch+1), 1)
	if err != nil {
		t.Fatal(err)
	}
	udf, err := s.PartitionFunc(InferenceSpec{From: 0, FromImage: true,
		EmitLayers: []int{m.FeatureLayers[0].LayerIndex}, KeepRawAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(FaultInferBatch, faultinject.FailNth(2))
	defer faultinject.Disarm(FaultInferBatch)
	_, err = e.MapPartitions("feat", tb, udf)
	var fe *faultinject.Error
	if !errors.As(err, &fe) || fe.Site != FaultInferBatch {
		t.Fatalf("pass over two batches returned %v, want the fault at %s on the second", err, FaultInferBatch)
	}
	s.Close()
	for i := 0; i < e.Config().Nodes; i++ {
		if dl, user := e.DLPool(i).Used(), e.UserPool(i).Used(); dl != 0 || user != 0 {
			t.Errorf("node %d: DL pool holds %d B and User pool %d B after Close", i, dl, user)
		}
	}
}
