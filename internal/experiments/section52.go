package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/memory"
	"repro/internal/ml"
)

// Section52Result reproduces the decision-tree observation of Section 5.2:
// "We also tried a decision tree as the downstream ML model ... in both
// cases incorporating CNN features didn't improve the accuracy
// significantly. We believe this is because the depths of the conventional
// decision tree models are not large enough to reap the benefits of CNN
// features."
type Section52Result struct {
	Dataset string
	// TreeStructF1 and TreeCNNF1 are the decision tree's test F1 with
	// structured features only and with the best CNN layer added.
	TreeStructF1, TreeCNNF1 float64
	// LRStructF1 and LRCNNF1 are logistic regression's, for contrast.
	LRStructF1, LRCNNF1 float64
}

// TreeLift and LRLift return each model's absolute F1 gain from CNN features.
func (r *Section52Result) TreeLift() float64 { return r.TreeCNNF1 - r.TreeStructF1 }

// LRLift returns logistic regression's CNN gain.
func (r *Section52Result) LRLift() float64 { return r.LRCNNF1 - r.LRStructF1 }

// Section52 trains both downstream models with and without CNN features on
// the Foods-like dataset (real engine, tiny CNN).
func Section52(rows int) (*Section52Result, error) {
	if rows <= 0 {
		rows = 1200
	}
	spec := data.Foods().WithRows(rows)
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		return nil, err
	}
	res := &Section52Result{Dataset: spec.Name}

	// Structured-only baselines.
	train, test := ml.SplitByID(structRows, 0.2)
	lr, err := ml.TrainLogRegRows(train, ml.StructuredOnly(), spec.StructDim, ml.DefaultLogRegConfig())
	if err != nil {
		return nil, err
	}
	met, err := ml.Evaluate(lr, test, ml.StructuredOnly())
	if err != nil {
		return nil, err
	}
	res.LRStructF1 = met.F1
	tree, err := ml.TrainTree(train, ml.StructuredOnly(), ml.DefaultTreeConfig())
	if err != nil {
		return nil, err
	}
	if met, err = ml.Evaluate(tree, test, ml.StructuredOnly()); err != nil {
		return nil, err
	}
	res.TreeStructF1 = met.F1

	// With CNN features, via the full pipeline.
	runSpec := core.Spec{
		Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 2,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows,
		Seed: 13,
	}
	lrRun, err := core.Run(runSpec)
	if err != nil {
		return nil, err
	}
	for _, l := range lrRun.Layers {
		if l.Test.F1 > res.LRCNNF1 {
			res.LRCNNF1 = l.Test.F1
		}
	}
	runSpec.Downstream.Kind = core.DecisionTree
	treeRun, err := core.Run(runSpec)
	if err != nil {
		return nil, err
	}
	for _, l := range treeRun.Layers {
		if l.Test.F1 > res.TreeCNNF1 {
			res.TreeCNNF1 = l.Test.F1
		}
	}
	return res, nil
}

// Tables lays out the comparison.
func (r *Section52Result) Tables() []Table {
	t := Table{Title: "Section 5.2: decision tree vs logistic regression with CNN features",
		Header: []string{r.Dataset, "struct F1", "struct+CNN F1", "lift"}}
	t.add("logistic regression",
		fmt.Sprintf("%.1f", r.LRStructF1*100),
		fmt.Sprintf("%.1f", r.LRCNNF1*100),
		fmt.Sprintf("%+.1f", r.LRLift()*100))
	t.add("decision tree",
		fmt.Sprintf("%.1f", r.TreeStructF1*100),
		fmt.Sprintf("%.1f", r.TreeCNNF1*100),
		fmt.Sprintf("%+.1f", r.TreeLift()*100))
	return []Table{t}
}
