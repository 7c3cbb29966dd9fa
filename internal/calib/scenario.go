package calib

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
)

// Scenario is a synthetic storage mis-calibration workload for exercising the
// full observe → fit → re-price loop without running the engine: each run
// fabricates the storage:peak sample a run with known true bytes would
// produce under an injected estimate error, pushes it through the exact
// production path (active-profile correction, recorder, windowed refit), and
// tracks how fast storage drift converges back to 1. The graded suite
// (ConvergenceScenarios) is the repo's convergence proof.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// TrueBytes is a run's true peak storage; the memory model's estimate
	// is TrueBytes × EstScale, the injected mis-calibration.
	TrueBytes int64
	EstScale  float64
	// NoisePct is the amplitude of deterministic multiplicative jitter on the
	// measured side (0.2 = ±20%), so fits see realistic scatter.
	NoisePct float64
	// EvidenceEvery, when above 1, gives only every EvidenceEvery-th run a
	// storage sample (the others record no storage evidence, as a run without
	// a sampled series does), so a refit window can fall short of the sample
	// floor.
	EvidenceEvery int
	// Runs is the total synthetic run count; RunsPerRefit is the fitter
	// cadence (a refit fires after every RunsPerRefit-th run).
	Runs, RunsPerRefit int
}

// ScenarioResult is one scenario's convergence record.
type ScenarioResult struct {
	Name string
	// Runs, Evidenced and Refits count what happened (Evidenced: runs that
	// carried a storage sample); ProfileChanges counts refits that actually
	// moved the factor.
	Runs, Evidenced, Refits, ProfileChanges int
	// ConvergedAfterRuns is the first run index (1-based) from which the
	// storage drift ratio stays inside [0.5, 2.0] through the end; 0 means
	// the scenario never converged.
	ConvergedAfterRuns int
	// FinalDrift is the closing storage drift ratio.
	FinalDrift float64
	// Profile is the profile active when the scenario ended, carrying the
	// fitted storage factor (nil if no refit ever changed it).
	Profile *Profile
}

// ConvergenceBand is the acceptance band on the drift ratio: converged means
// measurements run within 2× of (corrected) estimates in either direction,
// the same [0.5, 2.0] window the CI calibration smoke asserts.
const ConvergenceBand = 2.0

// ConvergenceScenarios returns the graded suite, mildest first: easy is a
// noiseless 3× over-estimate, medium adds ±10% measurement noise, and complex
// adds ±20% noise with storage evidence on only every third run, so the
// sample floor binds before the first refit.
func ConvergenceScenarios() []Scenario {
	return []Scenario{
		{Name: "easy", TrueBytes: 64 << 20, EstScale: 3, Runs: 24, RunsPerRefit: 4},
		{Name: "medium", TrueBytes: 64 << 20, EstScale: 3, NoisePct: 0.10, Runs: 32, RunsPerRefit: 4},
		{Name: "complex", TrueBytes: 64 << 20, EstScale: 3, NoisePct: 0.20, EvidenceEvery: 3, Runs: 48, RunsPerRefit: 4},
	}
}

// Run executes the scenario against a fresh in-memory recorder and fitter on
// a fake clock (runs a second apart, five-second half-life, so the whole
// suite is deterministic and sleep-free).
func (s Scenario) Run() ScenarioResult {
	fc := clock.NewFake()
	rec, _ := Open(Config{HalfLife: 5 * time.Second, Clock: fc}) // no path: cannot fail
	fitter := NewFitter(FitterConfig{Recorder: rec, Clock: fc})
	rng := newJitter(s.Name)

	res := ScenarioResult{Name: s.Name}
	inBand := make([]bool, s.Runs)
	for run := 0; run < s.Runs; run++ {
		var series *sim.SeriesReport
		if s.EvidenceEvery <= 1 || run%s.EvidenceEvery == 0 {
			series = &sim.SeriesReport{
				PredPeakStorageBytes: int64(float64(s.TrueBytes) * s.EstScale),
				MeasPeakStorageBytes: int64(float64(s.TrueBytes) * rng.factor(s.NoisePct)),
			}
			fitter.Active().ApplySeries(series)
			res.Evidenced++
		}
		_ = rec.Record(fmt.Sprintf("scenario|%s|%d", s.Name, run), SamplesFromRun(nil, series))
		res.Runs++
		fc.Advance(time.Second)
		if (run+1)%s.RunsPerRefit == 0 {
			changed, _ := fitter.RefitNow()
			res.Refits++
			if changed {
				res.ProfileChanges++
			}
		}
		res.FinalDrift = rec.agg.driftOf(KindStorage)
		inBand[run] = res.FinalDrift <= ConvergenceBand && res.FinalDrift >= 1/ConvergenceBand
	}
	res.Profile = fitter.Active()
	for run := s.Runs - 1; run >= 0 && inBand[run]; run-- {
		res.ConvergedAfterRuns = run + 1
	}
	return res
}

// jitter is a deterministic xorshift-based multiplicative noise source, so
// scenario results are reproducible without seeding global randomness.
type jitter struct{ state uint64 }

func newJitter(seed string) *jitter {
	j := &jitter{state: 0x9e3779b97f4a7c15}
	for _, c := range seed {
		j.state = (j.state ^ uint64(c)) * 0x100000001b3
	}
	if j.state == 0 {
		j.state = 1
	}
	return j
}

// factor returns a multiplicative factor uniform in [1-amp, 1+amp].
func (j *jitter) factor(amp float64) float64 {
	if amp <= 0 {
		return 1
	}
	j.state ^= j.state << 13
	j.state ^= j.state >> 7
	j.state ^= j.state << 17
	u := float64(j.state>>11) / float64(1<<53)
	return 1 - amp + 2*amp*u
}
