package experiments

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/plan"
	"repro/internal/sim"
)

// SweepPoint is one x-position of a runtime sweep: minutes per series, with
// "×" rendered for crashes.
type SweepPoint struct {
	X      string
	Series map[string]sim.Result
}

// SweepResult is a generic sweep figure (Figures 9–11 panels).
type SweepResult struct {
	Title  string
	Series []string
	Points []SweepPoint
}

// Table lays the sweep out as one table, one row per x-position.
func (r *SweepResult) Table() Table {
	t := Table{Title: r.Title, Header: append([]string{"x"}, r.Series...)}
	for _, p := range r.Points {
		row := []string{p.X}
		for _, s := range r.Series {
			row = append(row, fmtCell(p.Series[s]))
		}
		t.add(row...)
	}
	return t
}

// Get returns one series value at one x, or a crash result if absent.
func (r *SweepResult) Get(x, series string) sim.Result {
	for _, p := range r.Points {
		if p.X == x {
			if v, ok := p.Series[series]; ok {
				return v
			}
		}
	}
	return sim.Result{Crash: fmt.Errorf("experiments: no point %q/%q", x, series)}
}

// logicalCombos are Figure 9's four series.
var logicalCombos = []struct {
	name      string
	kind      plan.Kind
	placement plan.JoinPlacement
}{
	{"Eager/BJ", plan.Eager, plan.BeforeJoin},
	{"Eager/AJ", plan.Eager, plan.AfterJoin},
	{"Staged/BJ", plan.Staged, plan.BeforeJoin},
	{"Staged/AJ", plan.Staged, plan.AfterJoin},
}

// drilldownStorage caps per-node Storage Memory in the Section 5.3
// drill-downs, matching the paper's fixed setup ("fix cpu to 4, and fix
// Core Memory to 60% of JVM heap" — which leaves roughly this much heap for
// cached partitions). The cap is what makes Eager's intermediate blow-up
// visible as spills at higher data scales (Figure 9(3,4)).
const drilldownStorage = int64(9.5 * (1 << 30))

// drilldownConfig builds the Section 5.3 configuration for a workload.
func drilldownConfig(w sim.Workload) sim.Config {
	cfg := sim.TunedBaseline(w, 4)
	if cfg.Apportion.Storage > drilldownStorage {
		cfg.Apportion.Storage = drilldownStorage
	}
	cfg.Join = dataflow.ShuffleJoin
	cfg.Pers = dataflow.Deserialized
	return cfg
}

// runCombo simulates one logical-plan combination under the paper's fixed
// drill-down configuration.
func runCombo(model string, k int, ds sim.DatasetSpec, kind plan.Kind, placement plan.JoinPlacement) (sim.Result, error) {
	w, err := sim.NewWorkload(sim.WorkloadSpec{ModelName: model, NumLayers: k, Dataset: ds,
		PlanKind: kind, Placement: placement})
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(w, drilldownConfig(w), sim.PaperCluster()), nil
}

// Figure9 reproduces the logical-plan drill-down: Eager vs Staged × BJ vs AJ
// against the number of layers explored (panels 1–2) and the data scale
// (panels 3–4), for AlexNet and ResNet50.
func Figure9() ([]*SweepResult, error) {
	var out []*SweepResult

	// Panels 1–2: vary |L| at 2X scale.
	for _, model := range []string{"alexnet", "resnet50"} {
		sw := &SweepResult{Title: fmt.Sprintf("Figure 9(%s/2X): runtime (min) vs #layers", model)}
		for _, c := range logicalCombos {
			sw.Series = append(sw.Series, c.name)
		}
		maxK := layersFor(model)
		for k := 1; k <= maxK; k++ {
			p := SweepPoint{X: fmt.Sprintf("%dL", k), Series: map[string]sim.Result{}}
			for _, c := range logicalCombos {
				r, err := runCombo(model, k, sim.FoodsSpec().Scale(2), c.kind, c.placement)
				if err != nil {
					return nil, err
				}
				p.Series[c.name] = r
			}
			sw.Points = append(sw.Points, p)
		}
		out = append(out, sw)
	}

	// Panels 3–4: vary data scale at full |L|.
	for _, model := range []string{"alexnet", "resnet50"} {
		k := layersFor(model)
		sw := &SweepResult{Title: fmt.Sprintf("Figure 9(%s/%dL): runtime (min) vs data scale", model, k)}
		for _, c := range logicalCombos {
			sw.Series = append(sw.Series, c.name)
		}
		for _, scale := range []float64{1, 2, 4, 8} {
			p := SweepPoint{X: fmt.Sprintf("%.0fX", scale), Series: map[string]sim.Result{}}
			for _, c := range logicalCombos {
				r, err := runCombo(model, k, sim.FoodsSpec().Scale(scale), c.kind, c.placement)
				if err != nil {
					return nil, err
				}
				p.Series[c.name] = r
			}
			sw.Points = append(sw.Points, p)
		}
		out = append(out, sw)
	}
	return out, nil
}

// physicalCombos are Figure 10's four series.
var physicalCombos = []struct {
	name string
	join dataflow.JoinKind
	pers dataflow.PersistFormat
}{
	{"Shuffle/Deser.", dataflow.ShuffleJoin, dataflow.Deserialized},
	{"Shuffle/Ser.", dataflow.ShuffleJoin, dataflow.Serialized},
	{"Broad./Deser.", dataflow.BroadcastJoin, dataflow.Deserialized},
	{"Broad./Ser.", dataflow.BroadcastJoin, dataflow.Serialized},
}

// runPhysical simulates Staged/AJ under one physical choice with the
// Section 5.3 drill-down configuration.
func runPhysical(model string, k int, ds sim.DatasetSpec, join dataflow.JoinKind, pers dataflow.PersistFormat) (sim.Result, error) {
	w, err := vistaWorkload(model, k, ds, 8, false)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := drilldownConfig(w)
	cfg.Join = join
	cfg.Pers = pers
	return sim.Run(w, cfg, sim.PaperCluster()), nil
}

// Figure10 reproduces the physical-plan drill-down: Shuffle vs Broadcast ×
// Serialized vs Deserialized against data scale (panels 1–2) and the number
// of structured features (panels 3–4, at 8X scale, where Broadcast
// eventually crashes).
func Figure10() ([]*SweepResult, error) {
	var out []*SweepResult
	for _, model := range []string{"alexnet", "resnet50"} {
		k := layersFor(model)
		sw := &SweepResult{Title: fmt.Sprintf("Figure 10(%s/%dL): runtime (min) vs data scale", model, k)}
		for _, c := range physicalCombos {
			sw.Series = append(sw.Series, c.name)
		}
		for _, scale := range []float64{1, 2, 4, 8} {
			p := SweepPoint{X: fmt.Sprintf("%.0fX", scale), Series: map[string]sim.Result{}}
			for _, c := range physicalCombos {
				r, err := runPhysical(model, k, sim.FoodsSpec().Scale(scale), c.join, c.pers)
				if err != nil {
					return nil, err
				}
				p.Series[c.name] = r
			}
			sw.Points = append(sw.Points, p)
		}
		out = append(out, sw)
	}
	for _, model := range []string{"alexnet", "resnet50"} {
		k := layersFor(model)
		sw := &SweepResult{Title: fmt.Sprintf("Figure 10(%s/%dL/8X): runtime (min) vs #structured features", model, k)}
		for _, c := range physicalCombos {
			sw.Series = append(sw.Series, c.name)
		}
		for _, dim := range []int{10, 100, 1000, 10000} {
			ds := sim.FoodsSpec().Scale(8).WithStructDim(dim)
			p := SweepPoint{X: fmt.Sprintf("%d", dim), Series: map[string]sim.Result{}}
			for _, c := range physicalCombos {
				r, err := runPhysical(model, k, ds, c.join, c.pers)
				if err != nil {
					return nil, err
				}
				p.Series[c.name] = r
			}
			sw.Points = append(sw.Points, p)
		}
		out = append(out, sw)
	}
	return out, nil
}
