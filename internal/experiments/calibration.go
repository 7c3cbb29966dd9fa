package experiments

import (
	"fmt"
	"sort"
	"strings"

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
	// Runs, Refits, and ProfileChanges count the scenario's activity.
	Runs, Refits, ProfileChanges int
	// ConvergedAfterRuns is the first run from which drift stays inside
	// [0.5, 2.0] through the end (0 = never).
	ConvergedAfterRuns int
	// MaxAbsLogDrift is the worst |ln(drift)| at the final run.
	MaxAbsLogDrift float64
	// FinalScales renders the fitted per-kind factors ("infer=0.52 ...").
	FinalScales string
}

// CalibrationResult is the closed-loop calibration exhibit: the graded
// scenario suite's convergence numbers plus an admission-flip demonstration —
// the easy scenario's fitted profile re-prices a paper-scale workload and a
// budget between the plain and fitted prices flips the verdict.
type CalibrationResult struct {
	Scenarios []CalibrationScenarioRow

	// PlainCostBytes and FittedCostBytes are the admission prices of the
	// demo workload under identity scales and under the fitted profile.
	PlainCostBytes, FittedCostBytes int64
	// FlipBudgetBytes is the midpoint budget that separates the verdicts.
	FlipBudgetBytes int64
	// PlainAdmit and FittedAdmit are the two verdicts at that budget.
	PlainAdmit, FittedAdmit bool
}

// CalibrationConvergence runs the graded mis-calibration suite
// (calib.ConvergenceScenarios) through the production observe → fit →
// re-price loop on a fake clock, then demonstrates the pricing consequence
// on a resnet50 paper-cluster workload.
func CalibrationConvergence() (*CalibrationResult, error) {
	res := &CalibrationResult{}
	var easy *calib.Profile
	for _, s := range calib.ConvergenceScenarios() {
		r := s.Run()
		if r.ConvergedAfterRuns == 0 {
			return nil, fmt.Errorf("experiments: scenario %s never converged (drift %v)", r.Name, r.FinalDrift)
		}
		if easy == nil {
			easy = r.Profile
		}
		res.Scenarios = append(res.Scenarios, CalibrationScenarioRow{
			Name:               r.Name,
			Runs:               r.Runs,
			Refits:             r.Refits,
			ProfileChanges:     r.ProfileChanges,
			ConvergedAfterRuns: r.ConvergedAfterRuns,
			MaxAbsLogDrift:     r.MaxAbsLogDrift,
			FinalScales:        renderScales(r.FinalScale),
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
	params.Scales = easy.CostScales()
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

// renderScales formats a per-kind factor map in stable kind order.
func renderScales(scales map[calib.Kind]float64) string {
	keys := make([]string, 0, len(scales))
	for k := range scales {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.3g", k, scales[calib.Kind(k)]))
	}
	return strings.Join(parts, " ")
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
		Title:  "Closed-loop calibration — graded mis-calibration scenarios, converged = drift within [0.5, 2.0]",
		Header: []string{"grade", "runs", "refits", "changes", "converged@run", "|ln drift|", "fitted factors"},
	}
	for _, s := range r.Scenarios {
		t.add(s.Name, fmt.Sprint(s.Runs), fmt.Sprint(s.Refits), fmt.Sprint(s.ProfileChanges),
			fmt.Sprint(s.ConvergedAfterRuns), fmt.Sprintf("%.3f", s.MaxAbsLogDrift), s.FinalScales)
	}
	flip := fmt.Sprintf("Admission flip (resnet50, 5 layers, 8x32 GB): plain %s -> %s, fitted %s -> %s at budget %s",
		fmtGiB(r.PlainCostBytes), verdict(r.PlainAdmit),
		fmtGiB(r.FittedCostBytes), verdict(r.FittedAdmit),
		fmtGiB(r.FlipBudgetBytes))
	return []Table{t, {Title: flip}}
}
