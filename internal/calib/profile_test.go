package calib

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/sim"
)

// window builds the windowed evidence a refit fits.
func window(samples int64, suggested float64) fitEvidence {
	return fitEvidence{samples: samples, suggested: suggested}
}

func TestProfileNilSafety(t *testing.T) {
	var p *Profile
	if got := p.scale(); got != 1 {
		t.Errorf("nil scale = %v, want 1", got)
	}
	if got := (&Profile{Version: 2}).scale(); got != 1 {
		t.Errorf("unset scale = %v, want 1", got)
	}
	rep := sim.SeriesReport{PredPeakStorageBytes: memory.MB(100)}
	p.ApplySeries(&rep)
	if rep.PredPeakStorageBytes != memory.MB(100) {
		t.Error("nil ApplySeries mutated estimates")
	}
	p.ApplySeries(nil) // must not panic
	if p.refits() != 0 {
		t.Error("nil refits != 0")
	}
}

func TestProfileApplySeries(t *testing.T) {
	p := &Profile{Version: 2, StorageScale: 2}
	rep := sim.SeriesReport{
		PredPeakStorageBytes: memory.MB(100),
		PredSpillBytes:       memory.MB(10),
		MeasPeakStorageBytes: memory.MB(150),
		MeasSpillBytes:       memory.MB(15),
	}
	p.ApplySeries(&rep)
	if rep.PredPeakStorageBytes != memory.MB(200) || rep.PredSpillBytes != memory.MB(20) {
		t.Errorf("peak/spill = %d/%d, want doubled", rep.PredPeakStorageBytes, rep.PredSpillBytes)
	}
	if rep.MeasPeakStorageBytes != memory.MB(150) || rep.MeasSpillBytes != memory.MB(15) {
		t.Error("measured side must never be corrected")
	}
}

func TestRefitFitsAndComposes(t *testing.T) {
	now := time.Unix(20000, 0)

	// First fit from identity: the storage residual 0.25 becomes the factor.
	p1, changed := refit(nil, window(5, 0.25), now)
	if !changed || p1 == nil {
		t.Fatal("first fit reported unchanged")
	}
	if p1.StorageScale != 0.25 || p1.Samples != 5 {
		t.Errorf("fitted storage = %v on %d samples, want 0.25 on 5", p1.StorageScale, p1.Samples)
	}
	if p1.Refits != 1 || !p1.FittedAt.Equal(now) || p1.Version != 2 {
		t.Errorf("profile metadata = %+v", p1)
	}
	// Second fit composes multiplicatively: residual 1.5 on a 0.25 factor.
	p2, changed := refit(p1, window(9, 1.5), now.Add(time.Minute))
	if !changed {
		t.Fatal("residual 1.5 inside hysteresis?")
	}
	if got := p2.StorageScale; got != round6(0.25*1.5) {
		t.Errorf("composed storage = %v, want %v", got, round6(0.25*1.5))
	}
	if p2.Refits != 2 {
		t.Errorf("refits = %d, want 2", p2.Refits)
	}
}

func TestRefitMinSamplesFloor(t *testing.T) {
	// Two samples sit below the 3-sample floor: the factor keeps its prior
	// value no matter how loud the residual is.
	prev := &Profile{Version: 2, Refits: 1, StorageScale: 2}
	next, changed := refit(prev, window(2, 25), time.Unix(1, 0))
	if changed {
		t.Fatal("under-evidenced refit changed the profile")
	}
	if next != prev {
		t.Error("unchanged refit must return prev itself")
	}
	// At the floor the evidence counts.
	next, changed = refit(prev, window(minSamples, 25), time.Unix(1, 0))
	if !changed || next.StorageScale != maxScale {
		t.Errorf("at-floor refit: changed=%v scale=%v, want clamp %v", changed, next.StorageScale, maxScale)
	}
}

func TestRefitClampSaturation(t *testing.T) {
	// A runaway residual saturates at maxScale instead of tracking it.
	up, changed := refit(nil, window(10, 1e6), time.Unix(1, 0))
	if !changed || up.StorageScale != maxScale {
		t.Errorf("runaway fit = %v, want clamp %v", up.StorageScale, maxScale)
	}
	// And a collapsing one at minScale.
	down, changed := refit(nil, window(10, 1e-9), time.Unix(1, 0))
	if !changed || down.StorageScale != minScale {
		t.Errorf("collapsing fit = %v, want clamp %v", down.StorageScale, minScale)
	}
	// Saturated factors stay saturated under further pressure — and report
	// unchanged, so the profile file is not rewritten every interval.
	again, changed := refit(up, window(20, 1e6), time.Unix(2, 0))
	if changed || again != up {
		t.Error("saturated refit should be a no-op")
	}
}

func TestRefitHysteresisDeadBand(t *testing.T) {
	prev := &Profile{Version: 2, Refits: 3, StorageScale: 1.4}

	// Alternating small over- and under-estimates inside the band: the factor
	// must not see-saw — every refit is a no-op returning prev.
	for i, s := range []float64{1.05, 0.95, 1.09, 0.92, 1.0} {
		next, changed := refit(prev, window(50, s), time.Unix(int64(i), 0))
		if changed || next != prev {
			t.Fatalf("residual %v inside the dead band changed the profile", s)
		}
	}
	// Just outside the band the factor moves: ln(1.12) ≈ 0.113 > 0.10.
	next, changed := refit(prev, window(50, 1.12), time.Unix(9, 0))
	if !changed || next.StorageScale != round6(1.4*1.12) {
		t.Errorf("outside-band refit: changed=%v scale=%v, want %v", changed, next.StorageScale, round6(1.4*1.12))
	}
	if math.Abs(math.Log(0.95)) > hysteresis || math.Abs(math.Log(1.12)) < hysteresis {
		t.Error("test factors straddle the wrong side of the band")
	}
}

func TestSaveLoadProfileRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	p, _ := refit(nil, window(8, 3), time.Unix(30000, 0).UTC())
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Errorf("roundtrip: got %+v, want %+v", got, p)
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
	if _, err := LoadProfile(write("neg.json", `{"version":2,"storage_scale":-2}`)); err == nil {
		t.Error("negative scale accepted")
	}
	// A version-1 profile held share-space time factors; it is refused with
	// an error naming the file and the version, never half-applied.
	v1 := write("v1.json", `{"version":1,"refits":4,"scales":[{"kind":"storage","scale":0.5,"samples":9}]}`)
	_, err := LoadProfile(v1)
	if err == nil {
		t.Fatal("version-1 profile accepted")
	}
	if !strings.Contains(err.Error(), v1) || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 error %q does not name the path and the version", err)
	}
}

func TestSaveProfileFailpoint(t *testing.T) {
	defer faultinject.DisarmAll()
	faultinject.Arm(FaultProfileSave+".write", faultinject.FailAlways())
	path := filepath.Join(t.TempDir(), "profile.json")
	p, _ := refit(nil, window(5, 0.04), time.Unix(1, 0))
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
	p := &Profile{Version: 2, StorageScale: 0.04}
	ann := rep.WithProfile(p)
	if ann.Profile != p {
		t.Error("profile not embedded")
	}
	for _, st := range ann.Stages {
		want := 1.0
		if st.Kind == "storage" {
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
