package calib

import (
	"math"
	"testing"

	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

// TestConvergenceScenarios is the graded convergence proof: under an injected
// storage mis-calibration the closed loop must bring the storage drift ratio
// into [0.5, 2.0] within the first half of the scripted run budget and hold
// it there.
func TestConvergenceScenarios(t *testing.T) {
	for _, s := range ConvergenceScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			res := s.Run()
			if res.ConvergedAfterRuns == 0 {
				t.Fatalf("never converged: final drift %v", res.FinalDrift)
			}
			if res.ConvergedAfterRuns > s.Runs/2 {
				t.Errorf("converged only after run %d of %d; want within the first half",
					res.ConvergedAfterRuns, s.Runs)
			}
			if d := math.Abs(math.Log(res.FinalDrift)); d > math.Log(1.5) {
				t.Errorf("final drift %v exceeds 1.5x", res.FinalDrift)
			}
			if res.Profile == nil {
				t.Fatal("no profile fitted")
			}
		})
	}
}

// TestEasyScenarioSingleShotFit pins the noiseless case: one refit lands
// exactly on the inverse of the injected 3× over-estimate, after which the
// residual sits inside the hysteresis band and the profile never moves again.
func TestEasyScenarioSingleShotFit(t *testing.T) {
	res := ConvergenceScenarios()[0].Run()
	if res.ProfileChanges != 1 {
		t.Errorf("profile changes = %d, want exactly 1 (noiseless fixed point)", res.ProfileChanges)
	}
	if got := res.Profile.scale(); got != round6(1.0/3) {
		t.Errorf("storage factor = %v, want %v", got, round6(1.0/3))
	}
}

// TestGradedScenarioDirections checks every grade corrects the 3× over-estimate
// downward to near 1/3, and that the complex grade's sparse evidence waits at
// the sample floor instead of fitting fewer than minSamples runs.
func TestGradedScenarioDirections(t *testing.T) {
	for _, s := range ConvergenceScenarios() {
		if got := s.Run().Profile.scale(); got < 0.25 || got > 0.45 {
			t.Errorf("%s storage factor %v, want near 1/3", s.Name, got)
		}
	}
	complex := ConvergenceScenarios()[2].Run()
	if complex.Evidenced >= complex.Runs {
		t.Fatalf("complex grade has evidence on %d of %d runs, want a sparse subset", complex.Evidenced, complex.Runs)
	}
	if complex.Profile == nil || complex.Profile.Samples < minSamples {
		t.Errorf("complex profile fitted on %+v, want at least %d windowed samples", complex.Profile, minSamples)
	}
}

// TestScenarioProfileFlipsAdmission closes the loop end to end: the storage
// factor the easy scenario fits re-prices a real paper-cluster workload, and
// a budget between the two prices provably flips the admission verdict.
func TestScenarioProfileFlipsAdmission(t *testing.T) {
	res := ConvergenceScenarios()[0].Run()
	if res.Profile == nil {
		t.Fatal("no fitted profile")
	}
	wl, err := sim.NewWorkload(sim.WorkloadSpec{
		ModelName: "resnet50", NumLayers: 5, Dataset: sim.FoodsSpec(),
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 8, CPUSys: 8, MemSys: memory.GB(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, plain, err := sim.AdmissionCost(wl.Inputs, optimizer.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	params := optimizer.DefaultParams()
	params.StorageScale = res.Profile.StorageScale
	_, fitted, err := sim.AdmissionCost(wl.Inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	if fitted == plain {
		t.Fatalf("fitted profile left the price unchanged at %d", plain)
	}
	// The verdict flip: one budget, two pricings, two answers.
	budget := (plain + fitted) / 2
	lo, hi := plain, fitted
	if lo > hi {
		lo, hi = hi, lo
	}
	if !(lo <= budget && budget < hi) {
		t.Fatalf("budget %d does not separate %d and %d", budget, plain, fitted)
	}
	if admitPlain, admitFitted := plain <= budget, fitted <= budget; admitPlain == admitFitted {
		t.Errorf("verdict did not flip: plain %d fitted %d budget %d", plain, fitted, budget)
	}
}
