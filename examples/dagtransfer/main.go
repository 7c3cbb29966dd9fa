// Dagtransfer: feature transfer from a DAG-structured CNN, plus multi-layer
// feature aggregation — the two extensions the paper's Section 5.4 sketches
// as future work ("supporting [BERT] in Vista requires generalizing our
// staged materialization plan to support arbitrary DAG architectures";
// "aggregating features from multiple decoder layers using concatenation").
//
// The example runs the full Vista pipeline over a DenseNet-style model
// (densely connected blocks are DAGs internally) and then trains one more
// downstream model on the *concatenation* of two layers' features.
//
// Run with:
//
//	go run ./examples/dagtransfer
package main

import (
	"fmt"
	"log"

	"repro/internal/cnn"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/dl"
	"repro/internal/memory"
	"repro/internal/ml"
)

func main() {
	spec := data.Foods().WithRows(800)
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Part 1: the standard declarative workflow, but with a DAG CNN.
	res, err := core.Run(core.Spec{
		Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-densenet", NumLayers: 3,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows,
		Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Per-layer transfer from the DenseNet-style model:")
	for _, lr := range res.Layers {
		fmt.Printf("  %-8s (%3d dims): test F1 = %.1f%%\n", lr.LayerName, lr.FeatureDim, lr.Test.F1*100)
	}

	// Part 2: aggregate two layers' features by concatenation and train on
	// the union — one inference pass materializes both.
	model := cnn.TinyDenseNet()
	engine, err := dataflow.NewEngine(dataflow.Config{
		Nodes: 2, CoresPerNode: 4, Kind: memory.SparkLike,
		Apportion: memory.Apportionment{
			DLExecution: memory.GB(1), User: memory.GB(1),
			Core: memory.GB(1), Storage: memory.GB(4),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	session, err := dl.NewSession(engine, model, dl.Options{Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	tstr, err := engine.CreateTable("tstr", structRows, 8)
	if err != nil {
		log.Fatal(err)
	}
	timg, err := engine.CreateTable("timg", imageRows, 8)
	if err != nil {
		log.Fatal(err)
	}
	joined, err := engine.Join("joined", tstr, timg, dataflow.ShuffleJoin)
	if err != nil {
		log.Fatal(err)
	}
	dense1 := model.FeatureLayers[0]
	dense2 := model.FeatureLayers[1]
	udf, err := session.PartitionFunc(dl.InferenceSpec{
		From: 0, FromImage: true,
		EmitLayers: []int{dense1.LayerIndex, dense2.LayerIndex},
		KeepRawAt:  -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	feats, err := engine.MapPartitions("feats", joined, udf)
	if err != nil {
		log.Fatal(err)
	}
	d1, err := model.FeatureDim(dense1)
	if err != nil {
		log.Fatal(err)
	}
	d2, err := model.FeatureDim(dense2)
	if err != nil {
		log.Fatal(err)
	}
	dim := spec.StructDim + d1 + d2
	extract := ml.StructuredPlusConcat(0, 1)
	keep := func(r *dataflow.Row) bool { return !ml.IsTestID(r.ID, 0.2) }
	m, err := ml.TrainLogReg(engine, feats, keep, extract, dim, ml.DefaultLogRegConfig())
	if err != nil {
		log.Fatal(err)
	}
	rows, err := engine.Collect(feats)
	if err != nil {
		log.Fatal(err)
	}
	_, testRows := ml.SplitByID(rows, 0.2)
	met, err := ml.Evaluate(m, testRows, extract)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAggregated dense1 ⧺ dense2 (%d dims): test F1 = %.1f%%\n", d1+d2, met.F1*100)
	fmt.Println("One staged pass materialized both layers; aggregation is just a FeatureFunc.")
}
