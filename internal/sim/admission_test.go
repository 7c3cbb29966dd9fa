package sim

import (
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// TestAdmissionCost verifies the serving-time price matches the optimizer's
// apportionment, scales with the worker count, and fails for infeasible
// workloads.
func TestAdmissionCost(t *testing.T) {
	wl, err := NewWorkload(WorkloadSpec{
		ModelName: "resnet50", NumLayers: 5, Dataset: FoodsSpec(),
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 8, CPUSys: 8, MemSys: memory.GB(32),
	})
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	d, cost, err := AdmissionCost(wl.Inputs, optimizer.DefaultParams())
	if err != nil {
		t.Fatalf("AdmissionCost: %v", err)
	}
	want := 8 * (d.MemStorage + d.MemUser + d.MemDL)
	if cost != want {
		t.Errorf("cost = %d, want nodes*(storage+user+dl) = %d", cost, want)
	}
	if cost <= 0 {
		t.Errorf("cost = %d, want positive", cost)
	}

	// Halving the cluster halves the node multiplier (the per-worker split
	// may differ, but the price must follow DecisionCost exactly).
	if got := DecisionCost(d, 4); got != want/2 {
		t.Errorf("DecisionCost(4 nodes) = %d, want %d", got, want/2)
	}
	if got := DecisionCost(d, 0); got != want/8 {
		t.Errorf("DecisionCost clamps nodes to 1: got %d, want %d", got, want/8)
	}

	// An infeasible workload cannot be priced.
	tiny := wl.Inputs
	tiny.MemSys = memory.GB(4)
	if _, _, err := AdmissionCost(tiny, optimizer.DefaultParams()); !errors.Is(err, optimizer.ErrNoFeasible) {
		t.Errorf("infeasible workload priced: err = %v", err)
	}
}

// TestFollowerCost pins the follower's marginal price: its decision with DL
// Execution Memory zeroed, charged like any decision, and never above the
// leader's price.
func TestFollowerCost(t *testing.T) {
	wl, err := NewWorkload(WorkloadSpec{
		ModelName: "resnet50", NumLayers: 5, Dataset: FoodsSpec(),
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 8, CPUSys: 8, MemSys: memory.GB(32),
	})
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	d, err := optimizer.Optimize(wl.Inputs, optimizer.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{0, 1, 4, 8} {
		got := FollowerCost(d, nodes)
		if want := DecisionCost(optimizer.FollowerDecision(d), nodes); got != want {
			t.Errorf("nodes=%d: follower cost %d, want DecisionCost of the follower decision %d", nodes, got, want)
		}
		if leader := DecisionCost(d, nodes); got >= leader {
			t.Errorf("nodes=%d: follower cost %d not below leader cost %d", nodes, got, leader)
		}
	}
}
