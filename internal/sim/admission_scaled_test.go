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

// TestDecisionCostScaledIdentity pins the bit-exactness contract: identity
// scales must route through DecisionCost unchanged, so an unprofiled server
// prices exactly as before the calibration loop existed.
func TestDecisionCostScaledIdentity(t *testing.T) {
	in := admissionInputs(t)
	d, err := optimizer.Optimize(in, optimizer.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{0, 1, 4, 8} {
		want := DecisionCost(d, nodes)
		if got := DecisionCostScaled(d, nodes, optimizer.CostScales{}); got != want {
			t.Errorf("nodes=%d: zero scales cost %d != DecisionCost %d", nodes, got, want)
		}
		ones := optimizer.CostScales{Ingest: 1, Join: 1, Infer: 1, Train: 1, Storage: 1}
		if got := DecisionCostScaled(d, nodes, ones); got != want {
			t.Errorf("nodes=%d: identity scales cost %d != DecisionCost %d", nodes, got, want)
		}
		follower := DecisionCost(optimizer.FollowerDecision(d), nodes)
		if got := FollowerCostScaled(d, nodes, optimizer.CostScales{}); got != follower {
			t.Errorf("nodes=%d: identity follower cost %d != unscaled follower DecisionCost %d", nodes, got, follower)
		}
	}
}

// TestDecisionCostScaledChargesStorageNeed verifies the anti-telescoping
// charge: under a real profile the Storage term is min(MemStorage,
// ⌈SDouble/nodes⌉), so corrections to the estimates actually move the price
// instead of being absorbed by the Storage remainder.
func TestDecisionCostScaledChargesStorageNeed(t *testing.T) {
	d := optimizer.Decision{
		MemStorage: memory.GB(10),
		MemUser:    memory.GB(4),
		MemDL:      memory.GB(2),
		SDouble:    memory.GB(16), // ⌈16/8⌉ = 2 GB/node, well under the 10 GB remainder
	}
	sc := optimizer.CostScales{Infer: 2}
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

// TestAdmissionCostScaledMovesThePrice runs the full loop in the direction
// the CI smoke exercises: a cost model whose inference estimates run 25× hot
// converges on an Infer factor near 1/25 = 0.04, and pricing through that
// fitted factor lowers the admission charge (tiny corrected DL footprint,
// storage charged at its modeled need instead of the whole remainder). A
// budget between the two prices then provably flips the verdict from
// rejected to admitted.
func TestAdmissionCostScaledMovesThePrice(t *testing.T) {
	in := admissionInputs(t)
	_, plain, err := AdmissionCost(in, optimizer.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	params := optimizer.DefaultParams()
	params.Scales = optimizer.CostScales{Infer: 0.04}
	d, scaled, err := AdmissionCost(in, params)
	if err != nil {
		t.Fatal(err)
	}
	if scaled >= plain {
		t.Fatalf("fitted 0.04 infer factor did not lower the price: %d vs %d", scaled, plain)
	}
	if got := DecisionCostScaled(d, in.NNodes, params.Scales); got != scaled {
		t.Errorf("AdmissionCost = %d, want DecisionCostScaled = %d", scaled, got)
	}
	// A budget between the two prices rejects under paper constants and
	// admits under the fitted profile: the verdict provably flips.
	budget := (plain + scaled) / 2
	if !(scaled <= budget && plain > budget) {
		t.Errorf("no flipping budget exists between %d and %d", scaled, plain)
	}
	// Followers shed MemDL, so the follower price stays at or below the
	// leader's under the fitted pricing too.
	if f := FollowerCostScaled(d, in.NNodes, params.Scales); f > scaled {
		t.Errorf("scaled follower cost %d above leader cost %d", f, scaled)
	}

	// The opposite mis-calibration — a model running 25× cold fits a 25×
	// factor — blows VGG16's DL footprint past system memory: the workload
	// stops being admittable at all, the strongest possible flip.
	vgg, err := NewWorkload(WorkloadSpec{
		ModelName: "vgg16", NumLayers: 3, Dataset: FoodsSpec(),
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 8, CPUSys: 8, MemSys: memory.GB(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AdmissionCost(vgg.Inputs, optimizer.DefaultParams()); err != nil {
		t.Fatalf("unprofiled vgg16 should be admittable: %v", err)
	}
	params.Scales = optimizer.CostScales{Infer: 25}
	if _, _, err := AdmissionCost(vgg.Inputs, params); err == nil {
		t.Error("25x infer factor should price vgg16 infeasible")
	}
}
