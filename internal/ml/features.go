package ml

import (
	"errors"
	"fmt"

	"repro/internal/dataflow"
)

// FeatureFunc assembles one training example from a row: the feature vector
// x and the binary label y ∈ {0, 1}. dst is scratch the caller lends for x:
// a func that builds x appends it to dst[:0] (growing it when too small), so
// a caller extracting many rows passes each call's x back as the next dst
// and allocates once. A caller that keeps every x passes nil. A func may
// return memory it does not own (a row's own slice) only if it never writes
// dst; the caller must treat x as read-only either way.
type FeatureFunc func(dst []float32, r *dataflow.Row) (x []float32, y float32, err error)

// ErrNoFeatures indicates a row without the expected materialized features.
var ErrNoFeatures = errors.New("ml: row lacks requested feature tensor")

// StructuredOnly uses only the structured features X.
func StructuredOnly() FeatureFunc {
	return func(_ []float32, r *dataflow.Row) ([]float32, float32, error) {
		return r.Structured, r.Label, nil
	}
}

// StructuredPlusFeature concatenates X with the feature vector at the given
// TensorList index — the workload's X'_l ≡ [X, g_l(f̂_l(I))] (Section 3.2).
func StructuredPlusFeature(idx int) FeatureFunc { return StructuredPlusConcat(idx) }

// StructuredPlusConcat concatenates X with several feature vectors — the
// multi-layer feature aggregation the paper's Section 5.4 discusses for
// BERT-style models ("aggregating features from multiple decoder layers
// using concatenation").
func StructuredPlusConcat(indices ...int) FeatureFunc {
	return func(dst []float32, r *dataflow.Row) ([]float32, float32, error) {
		total := len(r.Structured)
		for _, idx := range indices {
			if r.Features == nil || r.Features.Len() <= idx {
				return nil, 0, fmt.Errorf("%w: index %d", ErrNoFeatures, idx)
			}
			f := r.Features.Get(idx)
			if len(f.Shape()) != 1 {
				return nil, 0, fmt.Errorf("ml: feature tensor at %d has rank %d, want 1", idx, len(f.Shape()))
			}
			total += f.NumElements()
		}
		if cap(dst) < total {
			dst = make([]float32, 0, total)
		}
		x := append(dst[:0], r.Structured...)
		for _, idx := range indices {
			x = append(x, r.Features.Get(idx).Data()...)
		}
		return x, r.Label, nil
	}
}

// Model scores feature vectors; for binary classifiers the score is the
// positive-class probability.
type Model interface {
	Predict(x []float32) float32
}

// Predictions applies a model with a 0.5 threshold.
func classify(m Model, x []float32) bool { return m.Predict(x) >= 0.5 }

// Metrics summarizes binary-classification quality.
type Metrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
	N         int
}

// Evaluate scores a model over rows using extract, returning standard binary
// metrics. Rows failing extraction propagate the error.
func Evaluate(m Model, rows []dataflow.Row, extract FeatureFunc) (Metrics, error) {
	var tp, fp, tn, fn int
	var x []float32
	for i := range rows {
		var y float32
		var err error
		if x, y, err = extract(x, &rows[i]); err != nil {
			return Metrics{}, err
		}
		pred := classify(m, x)
		actual := y >= 0.5
		switch {
		case pred && actual:
			tp++
		case pred && !actual:
			fp++
		case !pred && !actual:
			tn++
		default:
			fn++
		}
	}
	met := Metrics{N: tp + fp + tn + fn}
	if met.N == 0 {
		return met, nil
	}
	met.Accuracy = float64(tp+tn) / float64(met.N)
	if tp+fp > 0 {
		met.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		met.Recall = float64(tp) / float64(tp+fn)
	}
	if met.Precision+met.Recall > 0 {
		met.F1 = 2 * met.Precision * met.Recall / (met.Precision + met.Recall)
	}
	return met, nil
}

// IsTestID reports whether a row belongs to the held-out test split for the
// given fraction, by a stable hash of its ID.
func IsTestID(id int64, testFraction float64) bool {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return float64(h%1000)/1000.0 < testFraction
}

// SplitByID deterministically partitions rows into train and test sets by
// hashing IDs; testFraction of rows land in test. The split is stable across
// runs and independent of row order.
func SplitByID(rows []dataflow.Row, testFraction float64) (train, test []dataflow.Row) {
	for i := range rows {
		if IsTestID(rows[i].ID, testFraction) {
			test = append(test, rows[i])
		} else {
			train = append(train, rows[i])
		}
	}
	return train, test
}
