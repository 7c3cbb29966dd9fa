package sim

import (
	"repro/internal/optimizer"
)

// AdmissionCost prices a workload for serving-time admission control using
// the same Section 4.1 memory model (Equations 9–15) the optimizer plans
// with: it runs Algorithm 1 over the inputs and returns the cluster-wide
// bytes of Storage + User + DL Execution Memory the chosen configuration
// reserves. A server admitting runs against a byte budget charges this cost
// per run, so the sum of admitted reservations never exceeds what the host
// can hold — the paper's crash-avoidance model reused as a multi-query
// resource arbiter (DeepLens-style).
//
// The fixed per-worker overheads (OS Reserved and Core Memory, Table 1(C))
// are excluded: they are provisioning constants of the host, not per-run
// charges. Infeasible workloads return optimizer.ErrNoFeasible — a workload
// the optimizer cannot fit on the cluster at all cannot be priced (and would
// not survive execution either).
func AdmissionCost(in optimizer.Inputs, params optimizer.Params) (optimizer.Decision, int64, error) {
	d, err := optimizer.Optimize(in, params)
	if err != nil {
		return optimizer.Decision{}, 0, err
	}
	return d, DecisionCost(d, in.NNodes), nil
}

// DecisionCost renders an optimizer decision as an admission charge: the
// per-worker Storage + User + DL Execution apportionment times the worker
// count.
func DecisionCost(d optimizer.Decision, nodes int) int64 {
	if nodes < 1 {
		nodes = 1
	}
	return int64(nodes) * (d.MemStorage + d.MemUser + d.MemDL)
}

// FollowerCost prices a run that attaches a sharing leader's feature
// tables instead of executing its own partial-inference pass: the group is
// charged the full AdmissionCost once, for the leader, and each follower only
// its marginal reservation — the decision with DL Execution Memory zeroed
// (Equation 13's replicas are never loaded), keeping Storage and User memory
// for the attached tables and downstream training.
func FollowerCost(d optimizer.Decision, nodes int) int64 {
	return DecisionCost(optimizer.FollowerDecision(d), nodes)
}
