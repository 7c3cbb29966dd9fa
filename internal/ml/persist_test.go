package ml

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// predictionsMatch checks that two models agree on a probe set.
func predictionsMatch(t *testing.T, a, b Model, dim int) {
	t.Helper()
	probes := linearlySeparableRows(50, dim, 99)
	for i := range probes {
		pa := a.Predict(probes[i].Structured)
		pb := b.Predict(probes[i].Structured)
		if math.Abs(float64(pa-pb)) > 1e-6 {
			t.Fatalf("probe %d: %v vs %v", i, pa, pb)
		}
	}
}

func TestLogRegRoundTrip(t *testing.T) {
	rows := linearlySeparableRows(200, 8, 1)
	m, err := TrainLogRegRows(rows, StructuredOnly(), 8, DefaultLogRegConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := unmarshal(blob)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if _, ok := got.(*LogisticRegression); !ok {
		t.Fatalf("wrong type %T", got)
	}
	predictionsMatch(t, m, got, 8)
}

func TestTreeRoundTrip(t *testing.T) {
	rows := linearlySeparableRows(300, 4, 2)
	m, err := TrainTree(rows, StructuredOnly(), TreeConfig{MaxDepth: 5, MinLeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	tree, ok := got.(*DecisionTree)
	if !ok {
		t.Fatalf("wrong type %T", got)
	}
	if a, b := nodeDepth(tree.root), nodeDepth(m.root); a != b {
		t.Errorf("depth %d vs %d", a, b)
	}
	predictionsMatch(t, m, got, 4)
}

func TestMLPRoundTrip(t *testing.T) {
	rows := linearlySeparableRows(200, 6, 3)
	cfg := MLPConfig{Hidden: []int{8, 4}, Iterations: 5, BatchSize: 16, LearningRate: 0.1, Seed: 2}
	m, err := TrainMLP(rows, StructuredOnly(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	predictionsMatch(t, m, got, 6)
}

func TestSaveLoadModelFile(t *testing.T) {
	rows := linearlySeparableRows(100, 3, 4)
	m, err := TrainLogRegRows(rows, StructuredOnly(), 3, DefaultLogRegConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal(blob)
	if err != nil {
		t.Fatalf("Unmarshal of the saved file: %v", err)
	}
	predictionsMatch(t, m, got, 3)
}

func TestUnmarshalValidation(t *testing.T) {
	cases := []string{
		`not json`,
		`{"kind":"unknown","payload":{}}`,
		`{"kind":"logistic-regression","payload":{}}`,                            // no weights
		`{"kind":"logistic-regression","payload":{"W":[1],"Mu":[0]}}`,            // Mu without Sigma
		`{"kind":"decision-tree","payload":{}}`,                                  // no root
		`{"kind":"mlp","payload":{"dims":[2,1],"weights":[[1]],"biases":[[0]]}}`, // wrong weight len
		`{"kind":"mlp","payload":{"dims":[2],"weights":[],"biases":[]}}`,         // too few dims
	}
	for i, c := range cases {
		if _, err := unmarshal([]byte(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

type fakeModel struct{}

func (fakeModel) Predict([]float32) float32 { return 0 }

func TestMarshalUnknownType(t *testing.T) {
	if _, err := Marshal(fakeModel{}); err == nil {
		t.Error("unknown model type accepted")
	}
}
