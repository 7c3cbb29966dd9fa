package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/dl"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Figure15Row validates Equation 16 for one model: the estimated size of the
// largest staged intermediate table against the real engine's measured
// deserialized and serialized footprints (Appendix A, Figure 15).
type Figure15Row struct {
	Model string
	Rows  int
	// EstimateBytes is the Equation 16 upper bound (α = 2).
	EstimateBytes int64
	// ActualDeserBytes is the measured in-memory footprint of the real
	// stage table (raw carry + pooled feature) on the dataflow engine.
	ActualDeserBytes int64
	// ActualSerBytes is the measured flate-compressed footprint.
	ActualSerBytes int64
}

// Figure15Result holds one row per executable model.
type Figure15Result struct {
	Rows []Figure15Row
}

// Figure15 runs a real inference pass per Tiny model and measures the
// largest staged intermediate table, comparing against the Equation 16
// estimate. The paper's claims to check: estimates are safe upper bounds for
// deserialized data, and serialized data is smaller.
func Figure15(rows int) (*Figure15Result, error) {
	if rows <= 0 {
		rows = 300
	}
	res := &Figure15Result{}
	for _, modelName := range []string{"tiny-alexnet", "tiny-vgg16", "tiny-resnet50"} {
		row, err := figure15Row(modelName, rows)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func figure15Row(modelName string, rows int) (*Figure15Row, error) {
	spec := data.Foods().WithRows(rows)
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		return nil, err
	}
	model, err := cnn.ByName(modelName)
	if err != nil {
		return nil, err
	}
	stats, err := cnn.ComputeStats(model)
	if err != nil {
		return nil, err
	}

	engine, err := dataflow.NewEngine(dataflow.Config{
		Nodes: 2, CoresPerNode: 2, Kind: memory.SparkLike,
		Apportion: memory.Apportionment{
			DLExecution: memory.GB(1), User: memory.GB(1),
			Core: memory.GB(1), Storage: memory.GB(2),
		},
	})
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	session, err := dl.NewSession(engine, model, dl.Options{Seed: 11})
	if err != nil {
		return nil, err
	}
	defer session.Close()

	tstr, err := engine.CreateTable("tstr", structRows, 4)
	if err != nil {
		return nil, err
	}
	timg, err := engine.CreateTable("timg", imageRows, 4)
	if err != nil {
		return nil, err
	}
	joined, err := engine.Join("joined", tstr, timg, dataflow.ShuffleJoin)
	if err != nil {
		return nil, err
	}

	// The largest staged table is the bottom-most selected layer's stage:
	// pooled feature + raw carry (Figure 5(E)'s T1).
	base := model.FeatureLayers[len(model.FeatureLayers)-layersFor(modelName)]
	udf, err := session.PartitionFunc(dl.InferenceSpec{
		From: 0, FromImage: true,
		EmitLayers: []int{base.LayerIndex},
		KeepRawAt:  base.LayerIndex,
		DropInput:  true,
	})
	if err != nil {
		return nil, err
	}
	stage, err := engine.MapPartitions("stage1", joined, udf)
	if err != nil {
		return nil, err
	}
	deser := stage.MemBytes()
	var ser int64
	all, err := engine.Collect(stage)
	if err != nil {
		return nil, err
	}
	blob, err := dataflow.EncodeRows(all)
	if err != nil {
		return nil, err
	}
	ser = int64(len(blob))

	ls, err := stats.LayerStat(base.Name)
	if err != nil {
		return nil, err
	}
	est := optimizer.EstimateTableSize(rows, ls.RawElems+ls.FeatureDim, spec.StructDim,
		optimizer.DefaultParams().Alpha)
	return &Figure15Row{Model: modelName, Rows: rows,
		EstimateBytes: est, ActualDeserBytes: deser, ActualSerBytes: ser}, nil
}

// Tables lays out the size comparison.
func (r *Figure15Result) Tables() []Table {
	t := Table{Title: "Figure 15: size of largest intermediate table — Equation 16 estimate vs measured",
		Header: []string{"model", "rows", "estimate", "deserialized", "serialized"}}
	for _, row := range r.Rows {
		t.add(row.Model, fmt.Sprintf("%d", row.Rows),
			memory.FormatBytes(row.EstimateBytes),
			memory.FormatBytes(row.ActualDeserBytes),
			memory.FormatBytes(row.ActualSerBytes))
	}
	return []Table{t}
}

// Table2Row is one model's pre-materialized feature-layer sizes (Appendix B,
// Table 2; Foods dataset).
type Table2Row struct {
	Model string
	// SizesGB maps "1st"/"2nd"/"4th"/"5th" (from the top) to the stored
	// feature-table size in GB.
	SizesGB map[string]float64
}

// Table2Result reproduces Table 2.
type Table2Result struct {
	Rows        []Table2Row
	RawImagesGB float64
}

// Table2 computes the pre-materialized layer sizes for the Foods dataset
// from the roster statistics: raw feature bytes per row × 20k rows, stored
// serialized (feature tensors compress well; AlexNet's features are ~13%
// nonzero, VGG16's and ResNet50's ~36%, Appendix A).
func Table2() (*Table2Result, error) {
	ds := sim.FoodsSpec()
	res := &Table2Result{RawImagesGB: float64(ds.Rows) * float64(ds.ImageRowBytes) / 1e9}
	positions := map[string]int{"1st": 1, "2nd": 2, "4th": 4, "5th": 5}
	for _, modelName := range Models {
		m, err := cnn.ByName(modelName)
		if err != nil {
			return nil, err
		}
		stats, err := cnn.ComputeStats(m)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Model: modelName, SizesGB: map[string]float64{}}
		n := len(stats.FeatureLayers)
		for label, pos := range positions {
			if pos > n {
				continue
			}
			ls := stats.FeatureLayers[n-pos]
			stored := float64(ls.RawBytes) * float64(ds.Rows) / sparsityCompression(modelName)
			row.SizesGB[label] = stored / 1e9
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// sparsityCompression is the serialized compression feature tensors achieve,
// driven by their post-ReLU sparsity (Appendix A: "AlexNet features had only
// 13.0% non-zero values while VGG16's and ResNet50's had 36.1% and 35.7%").
func sparsityCompression(model string) float64 {
	switch {
	case strings.Contains(model, "alexnet"):
		return 4.8
	case strings.Contains(model, "vgg16"):
		return 1.7
	case strings.Contains(model, "resnet50"):
		return 1.4
	}
	return 2.2
}

// Tables lays out Table 2.
func (r *Table2Result) Tables() []Table {
	t := Table{Title: fmt.Sprintf("Table 2: sizes of pre-materialized feature layers, Foods (raw images: %.2f GB)", r.RawImagesGB),
		Header: []string{"model", "1st", "2nd", "4th", "5th"}}
	for _, row := range r.Rows {
		cells := []string{row.Model}
		for _, pos := range t.Header[1:] {
			if v, ok := row.SizesGB[pos]; ok {
				cells = append(cells, fmt.Sprintf("%.2f", v))
			} else {
				cells = append(cells, "-")
			}
		}
		t.add(cells...)
	}
	return []Table{t}
}

// Figure16Series is one model's pre-materialization comparison: runtime with
// and without a pre-materialized base, plus the materialization cost itself,
// for varying |L|.
type Figure16Series struct {
	Model string
	// Points maps "|L|L" to (materialization, without, with) minutes.
	Points []Figure16Point
}

// Figure16Point is one bar group of Figure 16.
type Figure16Point struct {
	Layers             int
	MaterializationMin float64
	WithoutPreMatMin   float64
	WithPreMatMin      float64
}

// Figure16Result reproduces Figure 16 (Appendix B).
type Figure16Result struct {
	Series []Figure16Series
}

// Figure16 compares Staged/AJ runtimes with and without pre-materializing
// the base layer, on Foods. Expected shapes: clear wins for AlexNet/VGG16;
// for ResNet50's 5-layer selection the huge conv4_6 base makes pre-mat a
// wash (Appendix B).
func Figure16() (*Figure16Result, error) {
	res := &Figure16Result{}
	for _, model := range Models {
		series := Figure16Series{Model: model}
		maxK := layersFor(model)
		for k := maxK; k >= 1; k-- {
			w, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k,
				Dataset: sim.FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin})
			if err != nil {
				return nil, err
			}
			cfg, err := sim.VistaConfig(w)
			if err != nil {
				return nil, err
			}
			without := sim.Run(w, cfg, sim.PaperCluster())

			wp, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k,
				Dataset: sim.FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin, PreMat: true})
			if err != nil {
				return nil, err
			}
			with := sim.Run(wp, cfg, sim.PaperCluster())
			mat := sim.PreMaterializationCost(wp, cfg, sim.PaperCluster())
			if without.Crash != nil || with.Crash != nil || mat.Crash != nil {
				return nil, fmt.Errorf("experiments: figure 16 crash (%s/%dL)", model, k)
			}
			series.Points = append(series.Points, Figure16Point{
				Layers:             k,
				MaterializationMin: mat.TotalMin(),
				WithoutPreMatMin:   without.TotalMin(),
				WithPreMatMin:      with.TotalMin(),
			})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Tables lays out one table per model.
func (r *Figure16Result) Tables() []Table {
	out := []Table{{Title: "Figure 16: runtimes with pre-materialized base layer, Foods (minutes)"}}
	for _, s := range r.Series {
		t := Table{Header: []string{s.Model, "materialization", "without pre-mat", "with pre-mat"}}
		for _, p := range s.Points {
			t.add(fmt.Sprintf("%dL", p.Layers),
				fmt.Sprintf("%.1f", p.MaterializationMin),
				fmt.Sprintf("%.1f", p.WithoutPreMatMin),
				fmt.Sprintf("%.1f", p.WithPreMatMin))
		}
		out = append(out, t)
	}
	return out
}

// Table3Result is the per-layer runtime breakdown (Appendix C, Table 3):
// image-read time and per-layer CNN-inference + first-LR-iteration minutes,
// for 1/2/4/8 nodes.
type Table3Result struct {
	// Breakdown[model][nodes] lists per-layer minutes, bottom layer first,
	// then the total and the image-read minutes.
	Breakdown map[string]map[int]Table3Column
	Nodes     []int
}

// Table3Column is one (model, node-count) column.
type Table3Column struct {
	// LayerMin maps the layer's name to inference+first-iteration minutes.
	LayerMin map[string]float64
	// LayerOrder lists layer names bottom-to-top.
	LayerOrder []string
	TotalMin   float64
	ReadMin    float64
}

// Table3 reproduces the runtime breakdown with Staged/AJ/Shuffle/Deser.
func Table3() (*Table3Result, error) {
	res := &Table3Result{Breakdown: map[string]map[int]Table3Column{}, Nodes: []int{1, 2, 4, 8}}
	for _, model := range Models {
		res.Breakdown[model] = map[int]Table3Column{}
		for _, nodes := range res.Nodes {
			w, err := vistaWorkload(model, layersFor(model), sim.FoodsSpec(), nodes, false)
			if err != nil {
				return nil, err
			}
			cfg, err := sim.VistaConfig(w)
			if err != nil {
				return nil, err
			}
			cfg.Join = dataflow.ShuffleJoin
			cfg.Pers = dataflow.Deserialized
			r := sim.Run(w, cfg, sim.PaperCluster().WithNodes(nodes))
			if r.Crash != nil {
				return nil, fmt.Errorf("experiments: table 3 crash (%s, %d nodes): %w", model, nodes, r.Crash)
			}
			col := Table3Column{LayerMin: map[string]float64{}, ReadMin: r.ReadSec / 60}
			for _, l := range r.Layers {
				v := (l.InferSec + l.TrainFirstSec) / 60
				col.LayerMin[l.Layer] = v
				col.LayerOrder = append(col.LayerOrder, l.Layer)
				col.TotalMin += v
			}
			res.Breakdown[model][nodes] = col
		}
	}
	return res, nil
}

// Tables lays out one table per model.
func (r *Table3Result) Tables() []Table {
	out := []Table{{Title: "Table 3: per-layer CNN inference + LR 1st iteration (minutes), Staged/AJ/Shuffle/Deser., Foods"}}
	for _, model := range Models {
		t := Table{Header: []string{model}}
		for _, n := range r.Nodes {
			t.Header = append(t.Header, fmt.Sprintf("%d node(s)", n))
		}
		order := r.Breakdown[model][r.Nodes[0]].LayerOrder
		for _, layer := range order {
			row := []string{layer}
			for _, n := range r.Nodes {
				row = append(row, fmt.Sprintf("%.2f", r.Breakdown[model][n].LayerMin[layer]))
			}
			t.add(row...)
		}
		totalRow := []string{"total"}
		readRow := []string{"read images"}
		for _, n := range r.Nodes {
			totalRow = append(totalRow, fmt.Sprintf("%.2f", r.Breakdown[model][n].TotalMin))
			readRow = append(readRow, fmt.Sprintf("%.2f", r.Breakdown[model][n].ReadMin))
		}
		t.add(totalRow...)
		t.add(readRow...)
		out = append(out, t)
	}
	return out
}

// Figure17Result is the speedup drill-down of Appendix C: separate speedup
// curves for (CNN inference + LR first iteration) and for image reads.
type Figure17Result struct {
	// ComputeSpeedup and ReadSpeedup map model → per-node-count speedups
	// relative to 1 node (node counts as in Table3Result.Nodes).
	ComputeSpeedup map[string][]float64
	ReadSpeedup    map[string][]float64
	Nodes          []int
}

// Figure17 derives the drill-down from Table 3's breakdown.
func Figure17() (*Figure17Result, error) {
	t3, err := Table3()
	if err != nil {
		return nil, err
	}
	res := &Figure17Result{ComputeSpeedup: map[string][]float64{},
		ReadSpeedup: map[string][]float64{}, Nodes: t3.Nodes}
	for _, model := range Models {
		base := t3.Breakdown[model][1]
		for _, n := range t3.Nodes {
			col := t3.Breakdown[model][n]
			res.ComputeSpeedup[model] = append(res.ComputeSpeedup[model], base.TotalMin/col.TotalMin)
			res.ReadSpeedup[model] = append(res.ReadSpeedup[model], base.ReadMin/col.ReadMin)
		}
	}
	return res, nil
}

// Tables lays out the two speedup families.
func (r *Figure17Result) Tables() []Table {
	return []Table{
		{Title: "Figure 17: speedup drill-down (vs 1 node)"},
		modelRatios("CNN+LR 1st iter", r.Nodes, r.ComputeSpeedup),
		modelRatios("read images", r.Nodes, r.ReadSpeedup),
	}
}
