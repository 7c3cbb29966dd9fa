package experiments

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/sim"
)

// Figure6Cell is one bar of Figure 6: an approach's total runtime (or crash)
// for one system × dataset × CNN combination.
type Figure6Cell struct {
	System   string // "spark" or "ignite"
	Dataset  string
	Model    string
	Approach string
	Result   sim.Result
	// PreMat is the pre-materialization time shown stacked on the
	// Lazy-5+Pre-mat bars (zero elsewhere).
	PreMat float64
}

// TotalMin is the bar height: the run plus any pre-materialization time.
func (c Figure6Cell) TotalMin() float64 {
	if c.Result.Crash != nil {
		return 0
	}
	return c.Result.TotalMin() + c.PreMat/60
}

// Crashed reports whether the cell is a paper "×".
func (c Figure6Cell) Crashed() bool { return c.Result.Crash != nil }

// Figure6Result is the full end-to-end reliability/efficiency grid.
type Figure6Result struct {
	Cells []Figure6Cell
}

// Approaches in Figure 6, in bar order.
var figure6Approaches = []string{"Lazy-1", "Lazy-5", "Lazy-7", "Lazy-5+Pre-mat", "Eager", "Vista"}

// Figure6 reproduces the end-to-end comparison (Section 5.1): six approaches
// on Spark-TF and Ignite-TF across both datasets and all three CNNs.
func Figure6() (*Figure6Result, error) {
	res := &Figure6Result{}
	for _, prof := range []sim.Profile{sim.PaperCluster(), sim.IgniteCluster()} {
		system := "spark"
		memOnly := false
		if !prof.Kind.SupportsSpill() {
			system = "ignite"
			memOnly = true
		}
		for _, ds := range []sim.DatasetSpec{sim.FoodsSpec(), sim.AmazonSpec()} {
			for _, model := range Models {
				k := layersFor(model)
				cells, err := figure6Cells(system, prof, memOnly, ds, model, k)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, cells...)
			}
		}
	}
	return res, nil
}

func figure6Cells(system string, prof sim.Profile, memOnly bool, ds sim.DatasetSpec, model string, k int) ([]Figure6Cell, error) {
	var out []Figure6Cell
	cell := func(approach string, r sim.Result, premat float64) {
		out = append(out, Figure6Cell{System: system, Dataset: ds.Name, Model: model,
			Approach: approach, Result: r, PreMat: premat})
	}

	// Lazy-k: the naive baselines with SQL-era default configs.
	lazyW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k, Dataset: ds,
		PlanKind: plan.Lazy, Placement: plan.BeforeJoin, Nodes: prof.Nodes, MemoryOnly: memOnly})
	if err != nil {
		return nil, err
	}
	for _, cpu := range []int{1, 5, 7} {
		cfg := sim.BaselineSpark(cpu)
		if memOnly {
			cfg = sim.BaselineIgnite(cpu)
		}
		cell(fmt.Sprintf("Lazy-%d", cpu), sim.Run(lazyW, cfg, prof), 0)
	}

	// Lazy-5 with Pre-mat: strong baseline; pre-materialization time is
	// charged to the bar.
	prematW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k, Dataset: ds,
		PlanKind: plan.Lazy, Placement: plan.BeforeJoin, PreMat: true, Nodes: prof.Nodes, MemoryOnly: memOnly})
	if err != nil {
		return nil, err
	}
	prematCfg := sim.TunedBaseline(prematW, 5)
	prematRun := sim.Run(prematW, prematCfg, prof)
	prematCost := sim.PreMaterializationCost(prematW, prematCfg, prof)
	cell("Lazy-5+Pre-mat", prematRun, prematCost.TotalSec())

	// Eager: strong baseline at 5 CPUs with tuned memory.
	eagerW, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k, Dataset: ds,
		PlanKind: plan.Eager, Placement: plan.BeforeJoin, Nodes: prof.Nodes, MemoryOnly: memOnly})
	if err != nil {
		return nil, err
	}
	cell("Eager", sim.Run(eagerW, sim.TunedBaseline(eagerW, 5), prof), 0)

	// Vista: optimizer-chosen Staged/AJ.
	cell("Vista", runVista(model, k, ds, prof), 0)
	return out, nil
}

// Tables lays the grid out as one table per system × dataset.
func (r *Figure6Result) Tables() []Table {
	out := []Table{{Title: "Figure 6: end-to-end reliability and efficiency (minutes; × = crash)"}}
	for _, system := range []string{"spark", "ignite"} {
		for _, dataset := range []string{"foods", "amazon"} {
			t := Table{Header: append([]string{system + "/" + dataset}, figure6Approaches...)}
			for _, model := range Models {
				row := []string{model}
				for _, approach := range figure6Approaches {
					row = append(row, r.cellString(system, dataset, model, approach))
				}
				t.add(row...)
			}
			out = append(out, t)
		}
	}
	return out
}

func (r *Figure6Result) cellString(system, dataset, model, approach string) string {
	c := r.Find(system, dataset, model, approach)
	switch {
	case c == nil:
		return "?"
	case c.Crashed():
		return fmtCell(c.Result)
	}
	return fmt.Sprintf("%.1f", c.TotalMin())
}

// Find returns the cell for the given coordinates, or nil.
func (r *Figure6Result) Find(system, dataset, model, approach string) *Figure6Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.System == system && c.Dataset == dataset && c.Model == model && c.Approach == approach {
			return c
		}
	}
	return nil
}
