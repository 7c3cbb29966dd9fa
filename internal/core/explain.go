package core

import (
	"repro/internal/optimizer"
	"repro/internal/sim"
)

// Explanation describes what Vista *would* do for a spec without executing
// anything: the optimizer's decision — an EXPLAIN for feature-transfer
// workloads.
type Explanation struct {
	Decision optimizer.Decision
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
	ex := &Explanation{}
	ex.Decision, ex.Infeasible = optimizer.Optimize(in, spec.params())
	return ex, nil
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
		Downstream: spec.Downstream.Footprint(),
	}.Inputs(id.Stats)
}
