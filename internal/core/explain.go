package core

import (
	"fmt"
	"strings"

	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Explanation describes what Vista *would* do for a spec without executing
// anything: the optimizer's decision, the compiled plan, and the
// intermediate-size analysis behind the memory choices — an EXPLAIN for
// feature-transfer workloads.
type Explanation struct {
	Decision optimizer.Decision
	Plan     *plan.Plan
	// TableSizes are the Equation 16 estimates per selected layer,
	// bottom-to-top.
	TableSizes []int64
	// SSingle and SDouble are the Equations 5–6 peaks.
	SSingle, SDouble int64
	// Infeasible is set (and Decision zero) when Algorithm 1 finds no
	// configuration; the workload needs more memory.
	Infeasible error
}

// Explain plans a spec without running it.
func Explain(spec Spec) (*Explanation, error) {
	id, err := spec.identity()
	if err != nil {
		return nil, err
	}
	in, err := optimizerInputs(spec, id)
	if err != nil {
		return nil, err
	}
	sizes, sSingle, sDouble, err := optimizer.IntermediateSizes(in, spec.params())
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Plan: id.Plan, TableSizes: sizes, SSingle: sSingle, SDouble: sDouble}
	ex.Decision, ex.Infeasible = optimizer.Optimize(in, spec.params())
	return ex, nil
}

// Render prints the explanation as a human-readable report.
func (e *Explanation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan: %s (%d inference stage(s), %.2f GFLOPs/example)\n",
		e.Plan.Name(), len(e.Plan.Steps), float64(e.Plan.TotalInferenceFLOPs())/1e9)
	for i, l := range e.Plan.Layers {
		fmt.Fprintf(&b, "  T%d %-9s est. %s\n", i+1, l.Name, memory.FormatBytes(e.TableSizes[i]))
	}
	fmt.Fprintf(&b, "Peaks: s_single=%s s_double=%s\n",
		memory.FormatBytes(e.SSingle), memory.FormatBytes(e.SDouble))
	if e.Infeasible != nil {
		fmt.Fprintf(&b, "Decision: INFEASIBLE — %v\n", e.Infeasible)
		return b.String()
	}
	d := e.Decision
	fmt.Fprintf(&b, "Decision: cpu=%d np=%d join=%v pers=%v\n", d.CPU, d.NP, d.Join, d.Pers)
	fmt.Fprintf(&b, "Memory:   dl=%s user=%s storage=%s\n",
		memory.FormatBytes(d.MemDL), memory.FormatBytes(d.MemUser), memory.FormatBytes(d.MemStorage))
	return b.String()
}

// optimizerInputs assembles the Algorithm 1 inputs for a spec (shared by Run,
// Price and Explain) through the simulator's one input builder.
func optimizerInputs(spec Spec, id *Identity) (optimizer.Inputs, error) {
	return sim.WorkloadSpec{
		ModelName: spec.ModelName,
		NumLayers: spec.NumLayers,
		Dataset: sim.DatasetSpec{
			Rows:          len(spec.StructRows),
			StructDim:     len(spec.StructRows[0].Structured),
			ImageRowBytes: id.ImageRowBytes,
		},
		Nodes:      spec.Nodes,
		CPUSys:     spec.CoresPerNode,
		MemSys:     spec.MemPerNode,
		MemGPU:     spec.GPUMemPerNode,
		Downstream: spec.Downstream.Footprint(),
	}.Inputs(id.Stats)
}
