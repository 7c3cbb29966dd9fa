package sim

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

func admissionInputs(t *testing.T) optimizer.Inputs {
	t.Helper()
	wl, err := NewWorkload(WorkloadSpec{
		ModelName: "resnet50", NumLayers: 5, Dataset: FoodsSpec(),
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 8, CPUSys: 8, MemSys: memory.GB(32),
	})
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	return wl.Inputs
}

// TestDecisionCostScaledIdentity pins the bit-exactness contract: an unset
// or unit storage factor must route through DecisionCost unchanged, so an
// unprofiled server prices exactly as before the calibration loop existed.
func TestDecisionCostScaledIdentity(t *testing.T) {
	in := admissionInputs(t)
	d, err := optimizer.Optimize(in, optimizer.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{0, 1, 4, 8} {
		want := DecisionCost(d, nodes)
		for _, f := range []float64{0, 1} {
			if got := DecisionCostScaled(d, nodes, f); got != want {
				t.Errorf("nodes=%d: factor %v cost %d != DecisionCost %d", nodes, f, got, want)
			}
		}
		follower := DecisionCost(optimizer.FollowerDecision(d), nodes)
		if got := FollowerCostScaled(d, nodes, 0); got != follower {
			t.Errorf("nodes=%d: identity follower cost %d != unscaled follower DecisionCost %d", nodes, got, follower)
		}
	}
}

// TestDecisionCostScaledChargesStorageNeed verifies the anti-telescoping
// charge: under a real factor the Storage term is min(MemStorage,
// ⌈SDouble/nodes⌉), so corrections to the estimates actually move the price
// instead of being absorbed by the Storage remainder.
func TestDecisionCostScaledChargesStorageNeed(t *testing.T) {
	d := optimizer.Decision{
		MemStorage: memory.GB(10),
		MemUser:    memory.GB(4),
		MemDL:      memory.GB(2),
		SDouble:    memory.GB(16), // ⌈16/8⌉ = 2 GB/node, well under the 10 GB remainder
	}
	const sc = 2.0
	got := DecisionCostScaled(d, 8, sc)
	want := 8 * (memory.GB(2) + memory.GB(4) + memory.GB(2))
	if got != want {
		t.Errorf("scaled cost = %d, want storage-need charge %d", got, want)
	}
	// When the modeled need exceeds the remainder, the remainder caps the
	// charge — the cluster cannot reserve more than it has.
	d.SDouble = memory.GB(200)
	got = DecisionCostScaled(d, 8, sc)
	want = 8 * (memory.GB(10) + memory.GB(4) + memory.GB(2))
	if got != want {
		t.Errorf("capped cost = %d, want remainder charge %d", got, want)
	}
	// The need divides ceiling-wise across nodes.
	d.SDouble = memory.GB(16) + 1
	got = DecisionCostScaled(d, 8, sc)
	want = 8 * (memory.GB(2) + 1 + memory.GB(4) + memory.GB(2))
	if got != want {
		t.Errorf("ceil-divided cost = %d, want %d", got, want)
	}
}

// TestAdmissionCostScaledMovesThePrice runs the pricing half of the loop: a
// memory model whose intermediate sizes run 3× hot fits a storage factor of
// 1/3, and pricing through it lowers the admission charge (smaller
// intermediates, storage charged at its modeled need instead of the whole
// remainder). A budget between the two prices then provably flips the
// verdict from rejected to admitted.
func TestAdmissionCostScaledMovesThePrice(t *testing.T) {
	in := admissionInputs(t)
	_, plain, err := AdmissionCost(in, optimizer.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	params := optimizer.DefaultParams()
	params.StorageScale = 1.0 / 3
	d, scaled, err := AdmissionCost(in, params)
	if err != nil {
		t.Fatal(err)
	}
	if scaled >= plain {
		t.Fatalf("fitted 1/3 storage factor did not lower the price: %d vs %d", scaled, plain)
	}
	if got := DecisionCostScaled(d, in.NNodes, params.StorageScale); got != scaled {
		t.Errorf("AdmissionCost = %d, want DecisionCostScaled = %d", scaled, got)
	}
	// A budget between the two prices rejects under paper constants and
	// admits under the fitted factor: the verdict provably flips.
	budget := (plain + scaled) / 2
	if !(scaled <= budget && plain > budget) {
		t.Errorf("no flipping budget exists between %d and %d", scaled, plain)
	}
	// Followers shed MemDL, so the follower price stays at or below the
	// leader's under the fitted pricing too.
	if f := FollowerCostScaled(d, in.NNodes, params.StorageScale); f > scaled {
		t.Errorf("scaled follower cost %d above leader cost %d", f, scaled)
	}
}
