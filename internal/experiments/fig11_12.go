package experiments

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/optimizer"
	"repro/internal/sim"
)

// Figure11Result covers both panels of Figure 11: runtime against the degree
// of parallelism (A) and against the number of partitions (B), plus the
// optimizer's picked values.
type Figure11Result struct {
	CPUSweep *SweepResult
	NPSweep  *SweepResult
	// Picked maps each model to the optimizer's (cpu, np).
	Picked map[string]optimizer.Decision
}

// Figure11 reproduces the system-configuration sweep on Foods with the
// Staged/AJ/Shuffle/Deserialized plan: runtimes improve with cpu until VGG16
// crashes past 4 cores; np shows the crash-at-low / overhead-at-high
// non-monotonicity; the optimizer picks near-optimal values (7/4/7 and
// multiples of the core count).
func Figure11() (*Figure11Result, error) {
	res := &Figure11Result{Picked: map[string]optimizer.Decision{}}

	cpuSweep := &SweepResult{Title: "Figure 11(A): runtime (min) vs cpu (Foods, Staged/AJ/Shuffle/Deser.)",
		Series: append([]string(nil), Models...)}
	for cpu := 1; cpu <= 8; cpu++ {
		p := SweepPoint{X: fmt.Sprintf("%d", cpu), Series: map[string]sim.Result{}}
		for _, model := range Models {
			r, err := vistaAt(model, sim.FoodsSpec(), 8, func(cfg *sim.Config, w sim.Workload) {
				cfg.CPU = cpu
				// Memory regions re-apportioned for the chosen cpu, as the
				// drill-down does ("explicitly apportioning the memory
				// regions based on the chosen cpu value").
				tuned := sim.TunedBaseline(w, cpu)
				cfg.Apportion = tuned.Apportion
				cfg.Join = dataflow.ShuffleJoin
				cfg.Pers = dataflow.Deserialized
			})
			if err != nil {
				return nil, err
			}
			p.Series[model] = r
		}
		cpuSweep.Points = append(cpuSweep.Points, p)
	}
	res.CPUSweep = cpuSweep

	npSweep := &SweepResult{Title: "Figure 11(B): runtime (min) vs np (Foods, Staged/AJ/Shuffle/Deser.)",
		Series: append([]string(nil), Models...)}
	for _, np := range []int{8, 32, 128, 512, 2048, 4096} {
		p := SweepPoint{X: fmt.Sprintf("%d", np), Series: map[string]sim.Result{}}
		for _, model := range Models {
			r, err := vistaAt(model, sim.FoodsSpec(), 8, func(cfg *sim.Config, _ sim.Workload) {
				cfg.NP = np
				cfg.Join = dataflow.ShuffleJoin
				cfg.Pers = dataflow.Deserialized
			})
			if err != nil {
				return nil, err
			}
			p.Series[model] = r
		}
		npSweep.Points = append(npSweep.Points, p)
	}
	res.NPSweep = npSweep

	for _, model := range Models {
		wi, err := sim.Vista(vistaSpec(model, sim.FoodsSpec(), 8))
		if err != nil {
			return nil, err
		}
		res.Picked[model] = wi.Decision
	}
	return res, nil
}

// Tables lays out both sweeps and the optimizer's picks.
func (r *Figure11Result) Tables() []Table {
	picks := Table{Title: "Optimizer picked values", Header: []string{"model", "cpu", "np", "join", "pers"}}
	for _, model := range Models {
		d := r.Picked[model]
		picks.add(model, fmt.Sprint(d.CPU), fmt.Sprint(d.NP), fmt.Sprint(d.Join), fmt.Sprint(d.Pers))
	}
	return []Table{r.CPUSweep.Table(), r.NPSweep.Table(), picks}
}

// Figure12Result covers scaleup, speedup, and the single-node cpu speedup.
type Figure12Result struct {
	// Scaleup[model][i] is t(1 node, 1X) / t(n_i nodes, n_iX) for
	// n = 1, 2, 4, 8 (ideal: 1.0).
	Scaleup map[string][]float64
	// Speedup[model][i] is t(1 node) / t(n_i nodes) on 1X data (ideal: n).
	Speedup map[string][]float64
	// CPUSpeedup[model][i] is t(cpu=1) / t(cpu=i+1) on one node, 0.25X.
	CPUSpeedup map[string][]float64
	Nodes      []int
}

// Figure12 reproduces the scalability experiment with Staged/AJ/Shuffle/
// Deserialized.
func Figure12() (*Figure12Result, error) {
	res := &Figure12Result{
		Scaleup:    map[string][]float64{},
		Speedup:    map[string][]float64{},
		CPUSpeedup: map[string][]float64{},
		Nodes:      []int{1, 2, 4, 8},
	}
	runAt := func(model string, nodes int, scale float64, cpuOverride int) (float64, error) {
		r, err := vistaAt(model, sim.FoodsSpec().Scale(scale), nodes, func(cfg *sim.Config, w sim.Workload) {
			cfg.Join = dataflow.ShuffleJoin
			cfg.Pers = dataflow.Deserialized
			if cpuOverride > 0 {
				// The Figure 12(C) drill-down re-apportions memory for each
				// tested cpu, like Figure 11(A).
				tuned := sim.TunedBaseline(w, cpuOverride)
				cfg.CPU = cpuOverride
				cfg.Apportion = tuned.Apportion
			}
		})
		if err != nil {
			return 0, err
		}
		if r.Crash != nil {
			// Infeasible points (e.g. many VGG16 replicas on one node)
			// are gaps in the curve, not harness failures.
			return 0, nil
		}
		return r.TotalSec(), nil
	}
	ratio := func(num, den float64) float64 {
		if den <= 0 || num <= 0 {
			return 0 // gap (infeasible point)
		}
		return num / den
	}
	for _, model := range Models {
		t11, err := runAt(model, 1, 1, 0)
		if err != nil {
			return nil, err
		}
		for _, n := range res.Nodes {
			tnn, err := runAt(model, n, float64(n), 0)
			if err != nil {
				return nil, err
			}
			res.Scaleup[model] = append(res.Scaleup[model], ratio(t11, tnn))
			tn1, err := runAt(model, n, 1, 0)
			if err != nil {
				return nil, err
			}
			res.Speedup[model] = append(res.Speedup[model], ratio(t11, tn1))
		}
		t1cpu, err := runAt(model, 1, 0.25, 1)
		if err != nil {
			return nil, err
		}
		for cpu := 1; cpu <= 8; cpu++ {
			tc, err := runAt(model, 1, 0.25, cpu)
			if err != nil {
				return nil, err
			}
			res.CPUSpeedup[model] = append(res.CPUSpeedup[model], ratio(t1cpu, tc))
		}
	}
	return res, nil
}

// Tables lays out the three panels.
func (r *Figure12Result) Tables() []Table {
	return []Table{
		{Title: "Figure 12: scalability (Staged/AJ/Shuffle/Deser., Foods)"},
		modelRatios("(A) scaleup", r.Nodes, r.Scaleup),
		modelRatios("(B) speedup", r.Nodes, r.Speedup),
		modelRatios("(C) 1-node cpu speedup", []int{1, 2, 3, 4, 5, 6, 7, 8}, r.CPUSpeedup),
	}
}

// modelRatios lays out one ratio curve per model: a row per model, a column
// per x.
func modelRatios(name string, xs []int, curves map[string][]float64) Table {
	t := Table{Header: []string{name}}
	for _, x := range xs {
		t.Header = append(t.Header, fmt.Sprint(x))
	}
	for _, model := range Models {
		row := []string{model}
		for _, v := range curves[model] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.add(row...)
	}
	return t
}
