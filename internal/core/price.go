package core

import (
	"repro/internal/optimizer"
	"repro/internal/sim"
)

// Price estimates how many bytes of workload memory (Storage + User + DL
// Execution, cluster-wide) running spec would reserve, without running it.
// It walks the same path Run does — validate, model stats, optimizer inputs
// (Equation 16), Algorithm 1 — and renders the chosen decision as an
// admission charge via sim.DecisionCost, so a server can admit runs against
// a byte budget using exactly the memory model the runs themselves will
// execute under (Section 4.1, Equations 9–15).
//
// A spec that pins a Decision is priced from that decision directly. An
// infeasible workload returns optimizer.ErrNoFeasible: it cannot be priced,
// and would not survive execution either.
func Price(spec Spec) (int64, error) {
	_, cost, err := price(spec)
	return cost, err
}

// PriceFollower prices spec as a sharing follower: a run that attaches its
// group leader's feature tables instead of executing its own partial
// inference. The group pays the leader's full Price once; each follower is
// charged only its marginal reservation — the same decision with DL
// Execution Memory zeroed (sim.FollowerCost), since a follower never
// opens a DL session. This is the Eq. 16 cost-model extension that lets the
// admission controller accept shared groups the solo pricing would have
// serialized.
func PriceFollower(spec Spec) (int64, error) {
	d, _, err := price(spec)
	if err != nil {
		return 0, err
	}
	return sim.FollowerCost(d, spec.Nodes), nil
}

// price resolves spec's decision and its full admission charge.
func price(spec Spec) (optimizer.Decision, int64, error) {
	if spec.Decision != nil {
		if err := spec.Validate(); err != nil {
			return optimizer.Decision{}, 0, err
		}
		return *spec.Decision, sim.DecisionCost(*spec.Decision, spec.Nodes), nil
	}
	id, err := spec.identity()
	if err != nil {
		return optimizer.Decision{}, 0, err
	}
	in, err := optimizerInputs(spec, id)
	if err != nil {
		return optimizer.Decision{}, 0, err
	}
	return sim.AdmissionCost(in, spec.params())
}
