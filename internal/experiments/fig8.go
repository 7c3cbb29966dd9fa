package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Figure8Entry is one bar of Figure 8: the downstream test F1 for one
// feature set.
type Figure8Entry struct {
	FeatureSet string // "struct", "struct+HOG", "struct+<layer>"
	F1         float64
}

// Figure8Panel is one of the figure's four panels.
type Figure8Panel struct {
	Dataset string
	Model   string
	Entries []Figure8Entry
}

// Figure8Result holds all four panels.
type Figure8Result struct {
	Panels []Figure8Panel
	// Rows is the dataset size used (the paper trains on Foods and a 20k
	// Amazon sample; this harness defaults to a smaller sample so the real
	// engine finishes quickly — pass rows explicitly for full fidelity).
	Rows int
}

// Figure8Options sizes the experiment.
type Figure8Options struct {
	// Rows per dataset (0 = 2000, enough for stable F1 ordering).
	Rows int
	// Seed for data generation and CNN weights.
	Seed int64
}

// Figure8 reproduces the accuracy experiment on the real engine: logistic
// regression with elastic net (α = 0.5, λ = 0.01) trained on structured
// features alone, structured+HOG, and structured+CNN features from every
// explored layer of the (Tiny) AlexNet and ResNet50, on both synthetic
// datasets. The expected shape: image features help, CNN features beat HOG.
func Figure8(opts Figure8Options) (*Figure8Result, error) {
	if opts.Rows <= 0 {
		opts.Rows = 2000
	}
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	res := &Figure8Result{Rows: opts.Rows}
	for _, dsSpec := range []data.Spec{data.Foods(), data.Amazon()} {
		spec := dsSpec.WithRows(opts.Rows)
		structRows, imageRows, err := data.Generate(spec)
		if err != nil {
			return nil, err
		}
		for _, model := range []string{"tiny-resnet50", "tiny-alexnet"} {
			panel, err := figure8Panel(spec, structRows, imageRows, model, opts.Seed)
			if err != nil {
				return nil, err
			}
			res.Panels = append(res.Panels, *panel)
		}
	}
	return res, nil
}

func figure8Panel(spec data.Spec, structRows, imageRows []dataflow.Row, model string, seed int64) (*Figure8Panel, error) {
	panel := &Figure8Panel{Dataset: spec.Name, Model: model}
	cfg := ml.DefaultLogRegConfig()
	cfg.Iterations = 30 // more than the paper's 10: small samples need them
	const testFraction = 0.2

	// struct only.
	train, test := ml.SplitByID(structRows, testFraction)
	m, err := ml.TrainLogRegRows(train, ml.StructuredOnly(), spec.StructDim, cfg)
	if err != nil {
		return nil, err
	}
	met, err := ml.Evaluate(m, test, ml.StructuredOnly())
	if err != nil {
		return nil, err
	}
	panel.Entries = append(panel.Entries, Figure8Entry{FeatureSet: "struct", F1: met.F1})

	// struct + HOG.
	hogRows, hogDim, err := hogAugmented(structRows, imageRows)
	if err != nil {
		return nil, err
	}
	trainH, testH := ml.SplitByID(hogRows, testFraction)
	mh, err := ml.TrainLogRegRows(trainH, ml.StructuredPlusFeature(0), spec.StructDim+hogDim, cfg)
	if err != nil {
		return nil, err
	}
	metH, err := ml.Evaluate(mh, testH, ml.StructuredPlusFeature(0))
	if err != nil {
		return nil, err
	}
	panel.Entries = append(panel.Entries, Figure8Entry{FeatureSet: "struct+HOG", F1: metH.F1})

	// struct + CNN layers, via the full Vista pipeline.
	k, err := featureLayers(model)
	if err != nil {
		return nil, err
	}
	runSpec := core.Spec{
		Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  model, NumLayers: k,
		Downstream: core.DownstreamSpec{Kind: core.LogisticRegression, LogReg: cfg, TestFraction: testFraction},
		StructRows: structRows, ImageRows: imageRows,
		Seed: seed, PlanKind: plan.Staged, Placement: plan.AfterJoin,
	}
	out, err := core.Run(runSpec)
	if err != nil {
		return nil, err
	}
	for _, lr := range out.Layers {
		panel.Entries = append(panel.Entries, Figure8Entry{
			FeatureSet: "struct+" + lr.LayerName, F1: lr.Test.F1})
	}
	return panel, nil
}

// hogAugmented appends each image's HOG vector as feature tensor 0. Coarse
// 32-pixel cells keep the HOG dimensionality (36 for 64×64 images)
// proportionate to the sample sizes this harness trains on — roughly the
// cells-per-image ratio the standard 8-pixel cells give at the paper's
// 227×227 resolution.
func hogAugmented(structRows, imageRows []dataflow.Row) ([]dataflow.Row, int, error) {
	cfg := data.HOGConfig{CellSize: 32, Bins: 9}
	out := make([]dataflow.Row, len(structRows))
	dim := 0
	for i := range structRows {
		img, err := tensor.Decode(imageRows[i].Image)
		if err != nil {
			return nil, 0, err
		}
		feats, err := data.HOG(img, cfg)
		if err != nil {
			return nil, 0, err
		}
		dim = len(feats)
		r := structRows[i].Clone()
		r.Features = tensor.NewTensorList(tensor.MustFromSlice(feats, len(feats)))
		out[i] = r
	}
	return out, dim, nil
}

// Tables lays out one table per panel.
func (r *Figure8Result) Tables() []Table {
	out := []Table{{Title: fmt.Sprintf("Figure 8: downstream test F1 by feature set (%d rows per dataset)", r.Rows)}}
	for _, p := range r.Panels {
		t := Table{Header: []string{p.Dataset + "/" + p.Model, "F1 (%)"}}
		for _, e := range p.Entries {
			t.add(e.FeatureSet, fmt.Sprintf("%.1f", e.F1*100))
		}
		out = append(out, t)
	}
	return out
}
