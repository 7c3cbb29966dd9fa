package experiments

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/sim"
)

// Figure7AResult is the single-node GPU comparison (Foods, all CNNs,
// Lazy-5/Lazy-7/Eager/Vista).
type Figure7AResult struct {
	Cells []Figure6Cell // reuse the cell shape; System is "spark-gpu"
}

// Figure7A reproduces the GPU experiment: a 12 GB Titan X workstation where
// Lazy-5/Lazy-7 crash for VGG16 (Equation 15) and Eager pays heavy spills on
// ResNet50.
func Figure7A() (*Figure7AResult, error) {
	prof := sim.SingleNodeGPU()
	res := &Figure7AResult{}
	ds := sim.FoodsSpec()
	for _, model := range Models {
		k := layersFor(model)
		lazyW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k, Dataset: ds,
			PlanKind: plan.Lazy, Placement: plan.BeforeJoin, Nodes: 1, MemGPU: prof.GPU.MemBytes})
		if err != nil {
			return nil, err
		}
		for _, cpu := range []int{5, 7} {
			res.Cells = append(res.Cells, Figure6Cell{System: "spark-gpu", Dataset: ds.Name,
				Model: model, Approach: fmt.Sprintf("Lazy-%d", cpu),
				Result: sim.Run(lazyW, sim.BaselineSpark(cpu), prof)})
		}
		eagerW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k, Dataset: ds,
			PlanKind: plan.Eager, Placement: plan.BeforeJoin, Nodes: 1, MemGPU: prof.GPU.MemBytes})
		if err != nil {
			return nil, err
		}
		// The workstation has less headroom; Eager runs deserialized at 4
		// threads as the paper's tuned baseline does on this box.
		eagerCfg := sim.TunedBaseline(eagerW, 4)
		res.Cells = append(res.Cells, Figure6Cell{System: "spark-gpu", Dataset: ds.Name,
			Model: model, Approach: "Eager", Result: sim.Run(eagerW, eagerCfg, prof)})

		vistaW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k, Dataset: ds,
			PlanKind: plan.Staged, Placement: plan.AfterJoin, Nodes: 1, MemGPU: prof.GPU.MemBytes})
		if err != nil {
			return nil, err
		}
		vr := sim.Result{Crash: fmt.Errorf("no config")}
		if cfg, err := sim.VistaConfig(vistaW); err == nil {
			vr = sim.Run(vistaW, cfg, prof)
		}
		res.Cells = append(res.Cells, Figure6Cell{System: "spark-gpu", Dataset: ds.Name,
			Model: model, Approach: "Vista", Result: vr})
	}
	return res, nil
}

// Tables lays out the GPU grid.
func (r *Figure7AResult) Tables() []Table {
	t := Table{Title: "Figure 7(A): single-node GPU, Foods (minutes; × = crash)",
		Header: []string{"model", "Lazy-5", "Lazy-7", "Eager", "Vista"}}
	for _, model := range Models {
		row := []string{model}
		for _, approach := range t.Header[1:] {
			cell := "?"
			if c := r.Find(model, approach); c != nil {
				cell = fmtCell(c.Result)
			}
			row = append(row, cell)
		}
		t.add(row...)
	}
	return []Table{t}
}

// Find returns the cell for the given model/approach, or nil.
func (r *Figure7AResult) Find(model, approach string) *Figure6Cell {
	for i := range r.Cells {
		if r.Cells[i].Model == model && r.Cells[i].Approach == approach {
			return &r.Cells[i]
		}
	}
	return nil
}

// Figure7BPoint is one x-position of Figure 7(B): runtimes for exploring the
// last n layers of ResNet50 on Foods.
type Figure7BPoint struct {
	Layers     int
	TFTBeamMin float64
	VistaMin   float64
}

// Figure7BResult compares TFT+Beam (an Eager-equivalent pipeline on a
// Flink-like engine, training a distributed MLP) against Vista.
type Figure7BResult struct {
	Points []Figure7BPoint
}

// Figure7B reproduces the TFT+Beam comparison: extracting all layers in one
// go is competitive for |L| = 1 but falls behind as more layers are explored
// and memory pressure forces spills.
func Figure7B() (*Figure7BResult, error) {
	res := &Figure7BResult{}
	ds := sim.FoodsSpec()
	for k := 1; k <= 5; k++ {
		// TFT+Beam: Eager-style extraction on the Flink profile with the
		// paper's hand-tuned working configuration (parallelism 32 over 8
		// nodes = 4 per node, 25 GB heap).
		tftW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: "resnet50", NumLayers: k,
			Dataset: ds, PlanKind: plan.Eager, Placement: plan.AfterJoin, MLPDownstream: true})
		if err != nil {
			return nil, err
		}
		tftCfg := sim.TunedBaseline(tftW, 4)
		// The paper's hand-tuned Flink configuration (25 GB heap, 60% User
		// Memory fraction) leaves little headroom for cached intermediates
		// — the memory pressure that "causes costly disk spills" once more
		// layers are extracted in one go.
		if cap := int64(1.5 * (1 << 30)); tftCfg.Apportion.Storage > cap {
			tftCfg.Apportion.Storage = cap
		}
		tft := sim.Run(tftW, tftCfg, sim.FlinkLike())

		vistaW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: "resnet50", NumLayers: k,
			Dataset: ds, PlanKind: plan.Staged, Placement: plan.AfterJoin, MLPDownstream: true})
		if err != nil {
			return nil, err
		}
		cfg, err := sim.VistaConfig(vistaW)
		if err != nil {
			return nil, err
		}
		vista := sim.Run(vistaW, cfg, sim.PaperCluster())
		if tft.Crash != nil || vista.Crash != nil {
			return nil, fmt.Errorf("experiments: figure 7B crash at k=%d: %v / %v", k, tft.Crash, vista.Crash)
		}
		res.Points = append(res.Points, Figure7BPoint{Layers: k,
			TFTBeamMin: tft.TotalMin(), VistaMin: vista.TotalMin()})
	}
	return res, nil
}

// Tables lays out the series.
func (r *Figure7BResult) Tables() []Table {
	t := Table{Title: "Figure 7(B): TFT+Beam(Flink) vs Vista, Foods/ResNet50, varying layers (minutes)",
		Header: []string{"layers", "TFT+Beam", "Vista"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%d", p.Layers), fmt.Sprintf("%.1f", p.TFTBeamMin), fmt.Sprintf("%.1f", p.VistaMin))
	}
	return []Table{t}
}
