package experiments

import (
	"fmt"
	"math"

	"repro/internal/calib"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

// CalibrationScenarioRow is one graded scenario's convergence record in the
// calibration exhibit.
type CalibrationScenarioRow struct {
	// Name is the scenario grade ("easy", "medium", "complex").
	Name string
	// Injected describes the injected storage error ("3x over, ±10% noise").
	Injected string
	// Runs, Evidenced, Refits, and ProfileChanges count the scenario's
	// activity (Evidenced: runs that carried a storage sample).
	Runs, Evidenced, Refits, ProfileChanges int
	// ConvergedAfterRuns is the first run from which storage drift stays
	// inside [0.5, 2.0] through the end (0 = never).
	ConvergedAfterRuns int
	// FinalDrift is the closing storage drift ratio and StorageScale the
	// fitted factor.
	FinalDrift, StorageScale float64
}

// CalibrationResult is the closed-loop calibration exhibit: the graded
// scenario suite's convergence numbers plus an admission-flip demonstration —
// the easy scenario's fitted storage factor re-prices a paper-scale workload
// and a budget between the plain and fitted prices flips the verdict.
type CalibrationResult struct {
	Scenarios []CalibrationScenarioRow

	// PlainCostBytes and FittedCostBytes are the admission prices of the
	// demo workload under the paper constants and under the fitted factor.
	PlainCostBytes, FittedCostBytes int64
	// FlipBudgetBytes is the midpoint budget that separates the verdicts.
	FlipBudgetBytes int64
	// PlainAdmit and FittedAdmit are the two verdicts at that budget.
	PlainAdmit, FittedAdmit bool
}

// CalibrationConvergence runs the graded storage mis-calibration suite
// (calib.ConvergenceScenarios) through the production observe → fit →
// re-price loop on a fake clock, then demonstrates the pricing consequence
// on a resnet50 paper-cluster workload.
func CalibrationConvergence() (*CalibrationResult, error) {
	res := &CalibrationResult{}
	var easy *calib.Profile
	for _, s := range calib.ConvergenceScenarios() {
		r := s.Run()
		if r.ConvergedAfterRuns == 0 || r.Profile == nil {
			return nil, fmt.Errorf("experiments: scenario %s never converged (drift %v)", r.Name, r.FinalDrift)
		}
		if easy == nil {
			easy = r.Profile
		}
		injected := fmt.Sprintf("%gx over", s.EstScale)
		if s.NoisePct > 0 {
			injected += fmt.Sprintf(", ±%g%% noise", 100*s.NoisePct)
		}
		res.Scenarios = append(res.Scenarios, CalibrationScenarioRow{
			Name:               r.Name,
			Injected:           injected,
			Runs:               r.Runs,
			Evidenced:          r.Evidenced,
			Refits:             r.Refits,
			ProfileChanges:     r.ProfileChanges,
			ConvergedAfterRuns: r.ConvergedAfterRuns,
			FinalDrift:         r.FinalDrift,
			StorageScale:       r.Profile.StorageScale,
		})
	}

	wl, err := sim.NewWorkload(sim.WorkloadSpec{
		ModelName: "resnet50", NumLayers: 5, Dataset: sim.FoodsSpec(),
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 8, CPUSys: 8, MemSys: memory.GB(32),
	})
	if err != nil {
		return nil, err
	}
	_, plain, err := sim.AdmissionCost(wl.Inputs, optimizer.DefaultParams())
	if err != nil {
		return nil, err
	}
	params := optimizer.DefaultParams()
	params.StorageScale = easy.StorageScale
	_, fitted, err := sim.AdmissionCost(wl.Inputs, params)
	if err != nil {
		return nil, err
	}
	res.PlainCostBytes, res.FittedCostBytes = plain, fitted
	res.FlipBudgetBytes = (plain + fitted) / 2
	res.PlainAdmit = plain <= res.FlipBudgetBytes
	res.FittedAdmit = fitted <= res.FlipBudgetBytes
	return res, nil
}

func verdict(admit bool) string {
	if admit {
		return "admit"
	}
	return "reject"
}

// Tables lays out the convergence table, then the admission-flip demo as a
// caption.
func (r *CalibrationResult) Tables() []Table {
	t := Table{
		Title:  "Closed-loop storage calibration — graded mis-calibration scenarios, converged = storage drift within [0.5, 2.0]",
		Header: []string{"grade", "injected error", "runs", "evidenced", "refits", "changes", "converged@run", "|ln drift|", "storage factor"},
	}
	for _, s := range r.Scenarios {
		t.add(s.Name, s.Injected, fmt.Sprint(s.Runs), fmt.Sprint(s.Evidenced), fmt.Sprint(s.Refits),
			fmt.Sprint(s.ProfileChanges), fmt.Sprint(s.ConvergedAfterRuns),
			fmt.Sprintf("%.3f", math.Abs(math.Log(s.FinalDrift))), fmt.Sprintf("%.3g", s.StorageScale))
	}
	flip := fmt.Sprintf("Admission flip (resnet50, 5 layers, 8x32 GB): plain %s -> %s, fitted %s -> %s at budget %s",
		fmtGiB(r.PlainCostBytes), verdict(r.PlainAdmit),
		fmtGiB(r.FittedCostBytes), verdict(r.FittedAdmit),
		fmtGiB(r.FlipBudgetBytes))
	return []Table{t, {Title: flip}}
}
