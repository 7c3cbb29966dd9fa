package ml

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file persists trained downstream models — the "model artifacts" the
// Vista API hands back to users (Section 3.3). Models serialize to a JSON
// envelope with a kind tag so a single Load call restores any of them.

// modelKind tags the serialized envelope.
type modelKind string

const (
	kindLogReg modelKind = "logistic-regression"
	kindTree   modelKind = "decision-tree"
	kindMLP    modelKind = "mlp"
)

// envelope is the on-disk format.
type envelope struct {
	Kind    modelKind       `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// treeNodeJSON mirrors treeNode for serialization.
type treeNodeJSON struct {
	Leaf      bool          `json:"leaf"`
	Prob      float32       `json:"prob,omitempty"`
	Feature   int           `json:"feature,omitempty"`
	Threshold float32       `json:"threshold,omitempty"`
	Left      *treeNodeJSON `json:"left,omitempty"`
	Right     *treeNodeJSON `json:"right,omitempty"`
}

func toJSONNode(n *treeNode) *treeNodeJSON {
	if n == nil {
		return nil
	}
	return &treeNodeJSON{
		Leaf: n.leaf, Prob: n.prob,
		Feature: n.feature, Threshold: n.threshold,
		Left: toJSONNode(n.left), Right: toJSONNode(n.right),
	}
}

func fromJSONNode(n *treeNodeJSON) *treeNode {
	if n == nil {
		return nil
	}
	return &treeNode{
		leaf: n.Leaf, prob: n.Prob,
		feature: n.Feature, threshold: n.Threshold,
		left: fromJSONNode(n.Left), right: fromJSONNode(n.Right),
	}
}

type treeJSON struct {
	Dim  int           `json:"dim"`
	Root *treeNodeJSON `json:"root"`
}

type mlpJSON struct {
	Dims    []int       `json:"dims"`
	Weights [][]float32 `json:"weights"`
	Biases  [][]float32 `json:"biases"`
}

// Marshal serializes a trained model.
func Marshal(m Model) ([]byte, error) {
	var env envelope
	var payload any
	switch v := m.(type) {
	case *LogisticRegression:
		env.Kind = kindLogReg
		payload = v
	case *DecisionTree:
		env.Kind = kindTree
		payload = treeJSON{Dim: v.Dim, Root: toJSONNode(v.root)}
	case *MLP:
		env.Kind = kindMLP
		payload = mlpJSON{Dims: v.dims, Weights: v.weights, Biases: v.biases}
	default:
		return nil, fmt.Errorf("ml: cannot serialize model type %T", m)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("ml: marshal: %w", err)
	}
	env.Payload = raw
	return json.Marshal(env)
}

// unmarshal restores a model serialized by Marshal.
func unmarshal(blob []byte) (Model, error) {
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("ml: unmarshal: %w", err)
	}
	switch env.Kind {
	case kindLogReg:
		var m LogisticRegression
		if err := json.Unmarshal(env.Payload, &m); err != nil {
			return nil, fmt.Errorf("ml: unmarshal logreg: %w", err)
		}
		if m.W == nil {
			return nil, fmt.Errorf("ml: unmarshal logreg: no weights")
		}
		if (m.Mu == nil) != (m.Sigma == nil) || len(m.Mu) != len(m.Sigma) {
			return nil, fmt.Errorf("ml: unmarshal logreg: inconsistent standardization params")
		}
		return &m, nil
	case kindTree:
		var t treeJSON
		if err := json.Unmarshal(env.Payload, &t); err != nil {
			return nil, fmt.Errorf("ml: unmarshal tree: %w", err)
		}
		if t.Root == nil {
			return nil, fmt.Errorf("ml: unmarshal tree: no root")
		}
		return &DecisionTree{Dim: t.Dim, root: fromJSONNode(t.Root)}, nil
	case kindMLP:
		var p mlpJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("ml: unmarshal mlp: %w", err)
		}
		if len(p.Dims) < 2 || len(p.Weights) != len(p.Dims)-1 || len(p.Biases) != len(p.Dims)-1 {
			return nil, fmt.Errorf("ml: unmarshal mlp: inconsistent layer shapes")
		}
		for l := 0; l+1 < len(p.Dims); l++ {
			if len(p.Weights[l]) != p.Dims[l]*p.Dims[l+1] || len(p.Biases[l]) != p.Dims[l+1] {
				return nil, fmt.Errorf("ml: unmarshal mlp: layer %d shape mismatch", l)
			}
		}
		return &MLP{dims: p.Dims, weights: p.Weights, biases: p.Biases}, nil
	}
	return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
}

// SaveModel writes a model artifact to path.
func SaveModel(path string, m Model) error {
	blob, err := Marshal(m)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("ml: save model: %w", err)
	}
	return nil
}
