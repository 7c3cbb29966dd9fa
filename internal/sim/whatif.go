package sim

import "repro/internal/optimizer"

// WhatIf is Vista's answer for one workload on one cluster: the Equation 16
// estimates, Algorithm 1's decision, and the simulated run under it.
type WhatIf struct {
	// Workload is the compiled workload; its Inputs are Algorithm 1's.
	Workload Workload
	// TableSizes are the Equation 16 estimates per selected layer,
	// bottom-to-top; SSingle and SDouble are the Equations 5–6 peaks.
	TableSizes       []int64
	SSingle, SDouble int64
	// Decision is Algorithm 1's pick and Config its simulator form.
	Decision optimizer.Decision
	Config   Config
	// Profile is the cluster the spec describes, and Result the decision's
	// simulated run on it (Result.Crash is set when that run crashes).
	Profile Profile
	Result  Result
}

// Vista answers what Vista picks for ws on the cluster ws describes and what
// that run costs. It builds the workload, estimates its intermediates, runs
// Algorithm 1, and simulates the decision on the
// cluster with ws's node count and per-node memory: the paper cluster,
// Ignite-like under MemoryOnly, or the GPU workstation with MemGPU of device
// memory. When no configuration fits, Vista returns the WhatIf with its
// workload and estimates filled in, and optimizer.ErrNoFeasible.
func Vista(ws WorkloadSpec) (*WhatIf, error) {
	w, err := NewWorkload(ws)
	if err != nil {
		return nil, err
	}
	params := optimizer.DefaultParams()
	wi := &WhatIf{Workload: w, Profile: profile(w.Inputs)}
	wi.TableSizes, wi.SSingle, wi.SDouble, err = optimizer.IntermediateSizes(w.Inputs, params)
	if err != nil {
		return nil, err
	}
	if wi.Decision, err = optimizer.Optimize(w.Inputs, params); err != nil {
		return wi, err
	}
	wi.Config = FromDecision(wi.Decision, params)
	wi.Result = Run(w, wi.Config, wi.Profile)
	return wi, nil
}

// profile is the cluster in describes: the paper cluster, Ignite-like under
// memory-only semantics, or the GPU workstation with in's device memory.
func profile(in optimizer.Inputs) Profile {
	p := PaperCluster()
	switch {
	case in.MemGPU > 0:
		p = SingleNodeGPU()
		p.GPU.MemBytes = in.MemGPU
	case in.StorageMustFit:
		p = IgniteCluster()
	}
	p.Nodes, p.MemPerNode = in.NNodes, in.MemSys
	return p
}
