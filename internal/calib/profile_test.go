package calib

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/sim"
)

// stage builds a minimal report row for Refit tests: only Kind, Samples and
// SuggestedScale participate in the fit.
func stage(k Kind, samples int64, suggested float64) StageAggregate {
	return StageAggregate{Kind: string(k), Samples: samples, SuggestedScale: suggested}
}

func reportOf(stages ...StageAggregate) Report { return Report{Stages: stages} }

func TestProfileNilSafety(t *testing.T) {
	var p *Profile
	if got := p.ScaleFor(KindInfer); got != 1 {
		t.Errorf("nil ScaleFor = %v, want 1", got)
	}
	if !p.CostScales().IsIdentity() {
		t.Error("nil CostScales not identity")
	}
	comps := []sim.StageComparison{{Stage: "infer:fc6", Estimated: time.Second}}
	p.ApplyComparisons(comps) // must not panic
	if comps[0].Estimated != time.Second {
		t.Error("nil ApplyComparisons mutated estimates")
	}
	p.ApplySeries(nil) // must not panic
	if p.refits() != 0 {
		t.Error("nil refits != 0")
	}
}

func TestProfileScaleForAndCostScales(t *testing.T) {
	p := &Profile{Version: 1, Scales: []ProfileScale{
		{Kind: "infer", Scale: 0.04},
		{Kind: "storage", Scale: 2.5},
		{Kind: "train", Scale: 0}, // unset factor = identity
	}}
	if got := p.ScaleFor(KindInfer); got != 0.04 {
		t.Errorf("infer = %v, want 0.04", got)
	}
	if got := p.ScaleFor(KindTrain); got != 1 {
		t.Errorf("unset train = %v, want 1", got)
	}
	if got := p.ScaleFor(KindIngest); got != 1 {
		t.Errorf("absent ingest = %v, want 1", got)
	}
	sc := p.CostScales()
	if sc.Infer != 0.04 || sc.Storage != 2.5 || sc.Ingest != 1 || sc.Join != 1 || sc.Train != 1 {
		t.Errorf("CostScales = %+v", sc)
	}
	if sc.IsIdentity() {
		t.Error("non-trivial profile renders identity scales")
	}
}

func TestProfileApplyComparisons(t *testing.T) {
	p := &Profile{Version: 1, Scales: []ProfileScale{{Kind: "infer", Scale: 0.5}}}
	comps := []sim.StageComparison{
		{Stage: "infer:fc6", Estimated: 10 * time.Second},
		{Stage: "shared:fc7", Estimated: 4 * time.Second}, // attach labels are infer-kind too
		{Stage: "ingest", Estimated: 2 * time.Second},     // factor 1: untouched
		{Stage: "mystery", Estimated: 3 * time.Second},    // unmodeled: untouched
	}
	p.ApplyComparisons(comps)
	if comps[0].Estimated != 5*time.Second {
		t.Errorf("infer estimate = %v, want 5s", comps[0].Estimated)
	}
	if comps[1].Estimated != 2*time.Second {
		t.Errorf("shared estimate = %v, want 2s", comps[1].Estimated)
	}
	if comps[2].Estimated != 2*time.Second || comps[3].Estimated != 3*time.Second {
		t.Errorf("untouched stages moved: %v, %v", comps[2].Estimated, comps[3].Estimated)
	}
}

func TestProfileApplySeries(t *testing.T) {
	p := &Profile{Version: 1, Scales: []ProfileScale{{Kind: "storage", Scale: 2}}}
	rep := sim.SeriesReport{
		PredPeakStorageBytes: memory.MB(100),
		PredSpillBytes:       memory.MB(10),
		MeasPeakStorageBytes: memory.MB(150),
		Stages: []sim.StageSeries{
			{Stage: "infer:fc6", PredStorageBytes: memory.MB(40), PredSpillBytes: memory.MB(4)},
		},
	}
	p.ApplySeries(&rep)
	if rep.PredPeakStorageBytes != memory.MB(200) || rep.PredSpillBytes != memory.MB(20) {
		t.Errorf("peak/spill = %d/%d, want doubled", rep.PredPeakStorageBytes, rep.PredSpillBytes)
	}
	if rep.MeasPeakStorageBytes != memory.MB(150) {
		t.Error("measured side must never be corrected")
	}
	if rep.Stages[0].PredStorageBytes != memory.MB(80) || rep.Stages[0].PredSpillBytes != memory.MB(8) {
		t.Errorf("per-stage preds = %d/%d, want doubled", rep.Stages[0].PredStorageBytes, rep.Stages[0].PredSpillBytes)
	}
}

func TestRefitFitsAndComposes(t *testing.T) {
	now := time.Unix(20000, 0)
	opts := DefaultFitOptions()

	// First fit from identity: infer's residual 0.04 becomes the factor.
	p1, changed := Refit(nil, reportOf(stage(KindInfer, 5, 0.04)), now, opts)
	if !changed || p1 == nil {
		t.Fatal("first fit reported unchanged")
	}
	if got := p1.ScaleFor(KindInfer); got != 0.04 {
		t.Errorf("fitted infer = %v, want 0.04", got)
	}
	if p1.Refits != 1 || !p1.FittedAt.Equal(now) || p1.Version != 1 {
		t.Errorf("profile metadata = %+v", p1)
	}
	// Untouched kinds carry factor 1 explicitly.
	if got := p1.ScaleFor(KindJoin); got != 1 {
		t.Errorf("unfitted join = %v, want 1", got)
	}

	// Second fit composes multiplicatively: residual 1.5 on a 0.04 factor.
	p2, changed := Refit(p1, reportOf(stage(KindInfer, 9, 1.5)), now.Add(time.Minute), opts)
	if !changed {
		t.Fatal("residual 1.5 inside hysteresis?")
	}
	if got := p2.ScaleFor(KindInfer); got != round6(0.04*1.5) {
		t.Errorf("composed infer = %v, want %v", got, round6(0.04*1.5))
	}
	if p2.Refits != 2 {
		t.Errorf("refits = %d, want 2", p2.Refits)
	}
}

func TestRefitMinSamplesFloor(t *testing.T) {
	// Two samples sit below the 3-sample floor: the kind keeps its prior
	// factor no matter how loud the residual is.
	prev := &Profile{Version: 1, Refits: 1, Scales: []ProfileScale{{Kind: "infer", Scale: 2}}}
	next, changed := Refit(prev, reportOf(stage(KindInfer, 2, 25)), time.Unix(1, 0), DefaultFitOptions())
	if changed {
		t.Fatal("under-evidenced refit changed the profile")
	}
	if next != prev {
		t.Error("unchanged refit must return prev itself")
	}
	// At the floor the evidence counts.
	next, changed = Refit(prev, reportOf(stage(KindInfer, 3, 25)), time.Unix(1, 0), DefaultFitOptions())
	if !changed || next.ScaleFor(KindInfer) != 50 {
		t.Errorf("at-floor refit: changed=%v scale=%v, want clamp 50", changed, next.ScaleFor(KindInfer))
	}
}

func TestRefitClampSaturation(t *testing.T) {
	opts := DefaultFitOptions()
	// A runaway residual saturates at MaxScale instead of tracking it.
	up, changed := Refit(nil, reportOf(stage(KindStorage, 10, 1e6)), time.Unix(1, 0), opts)
	if !changed || up.ScaleFor(KindStorage) != opts.MaxScale {
		t.Errorf("runaway fit = %v, want clamp %v", up.ScaleFor(KindStorage), opts.MaxScale)
	}
	// And a collapsing one at MinScale.
	down, changed := Refit(nil, reportOf(stage(KindStorage, 10, 1e-9)), time.Unix(1, 0), opts)
	if !changed || down.ScaleFor(KindStorage) != opts.MinScale {
		t.Errorf("collapsing fit = %v, want clamp %v", down.ScaleFor(KindStorage), opts.MinScale)
	}
	// Saturated factors stay saturated under further pressure — and report
	// unchanged, so the profile file is not rewritten every interval.
	again, changed := Refit(up, reportOf(stage(KindStorage, 20, 1e6)), time.Unix(2, 0), opts)
	if changed || again != up {
		t.Error("saturated refit should be a no-op")
	}
}

func TestRefitHysteresisDeadBand(t *testing.T) {
	opts := DefaultFitOptions() // 0.10 on |ln(suggested)|
	prev := &Profile{Version: 1, Refits: 3, Scales: []ProfileScale{{Kind: "ingest", Scale: 1.4}}}

	// Alternating small over- and under-estimates inside the band: the factor
	// must not see-saw — every refit is a no-op returning prev.
	for i, s := range []float64{1.05, 0.95, 1.09, 0.92, 1.0} {
		next, changed := Refit(prev, reportOf(stage(KindIngest, 50, s)), time.Unix(int64(i), 0), opts)
		if changed || next != prev {
			t.Fatalf("residual %v inside the dead band changed the profile", s)
		}
	}
	// Just outside the band the factor moves: ln(1.12) ≈ 0.113 > 0.10.
	next, changed := Refit(prev, reportOf(stage(KindIngest, 50, 1.12)), time.Unix(9, 0), opts)
	if !changed || next.ScaleFor(KindIngest) != round6(1.4*1.12) {
		t.Errorf("outside-band refit: changed=%v scale=%v, want %v", changed, next.ScaleFor(KindIngest), round6(1.4*1.12))
	}
	if math.Abs(math.Log(0.95)) > opts.Hysteresis || math.Abs(math.Log(1.12)) < opts.Hysteresis {
		t.Error("test factors straddle the wrong side of the band")
	}
}

func TestSaveLoadProfileRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	p, _ := Refit(nil, reportOf(stage(KindInfer, 5, 0.04), stage(KindStorage, 8, 3)), time.Unix(30000, 0).UTC(), DefaultFitOptions())
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != p.Version || got.Refits != p.Refits || !got.FittedAt.Equal(p.FittedAt) {
		t.Errorf("roundtrip metadata: got %+v, want %+v", got, p)
	}
	for _, k := range Kinds {
		if got.ScaleFor(k) != p.ScaleFor(k) {
			t.Errorf("%s roundtrip = %v, want %v", k, got.ScaleFor(k), p.ScaleFor(k))
		}
	}
}

func TestLoadProfileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := LoadProfile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := LoadProfile(write("bad.json", "{")); err == nil {
		t.Error("torn JSON accepted")
	}
	if _, err := LoadProfile(write("v9.json", `{"version":9}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := LoadProfile(write("neg.json", `{"version":1,"scales":[{"kind":"infer","scale":-2}]}`)); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestSaveProfileFailpoint(t *testing.T) {
	defer faultinject.DisarmAll()
	faultinject.Arm(FaultProfileSave+".write", faultinject.FailAlways())
	path := filepath.Join(t.TempDir(), "profile.json")
	p, _ := Refit(nil, reportOf(stage(KindInfer, 5, 0.04)), time.Unix(1, 0), DefaultFitOptions())
	if err := SaveProfile(path, p); err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	// The atomic discipline means a failed save leaves no file behind.
	if _, err := LoadProfile(path); err == nil {
		t.Error("failed save left a readable profile")
	}
	faultinject.DisarmAll()
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); err != nil {
		t.Errorf("post-failure save unreadable: %v", err)
	}
}

func TestReportWithProfile(t *testing.T) {
	rep := NewAggregator(0).Report()
	if got := rep.WithProfile(nil); got.Profile != nil {
		t.Error("nil profile embedded")
	}
	p := &Profile{Version: 1, Scales: []ProfileScale{{Kind: "infer", Scale: 0.04}}}
	ann := rep.WithProfile(p)
	if ann.Profile != p {
		t.Error("profile not embedded")
	}
	for _, st := range ann.Stages {
		want := 1.0
		if st.Kind == "infer" {
			want = 0.04
		}
		if st.ActiveScale != want {
			t.Errorf("%s active scale = %v, want %v", st.Kind, st.ActiveScale, want)
		}
	}
	// The annotation copies: the snapshot it came from keeps ActiveScale 1.
	for _, st := range rep.Stages {
		if st.ActiveScale != 1 {
			t.Errorf("WithProfile mutated the source report (%s = %v)", st.Kind, st.ActiveScale)
		}
	}
}
