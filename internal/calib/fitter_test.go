package calib

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// recordStorage feeds rec one run whose peak-storage estimate overshoots the
// measurement by est/meas.
func recordStorage(t *testing.T, rec *Recorder, est, meas float64) {
	t.Helper()
	if err := rec.Record("fp", []Sample{
		{Stage: "storage:peak", Kind: KindStorage, Est: est, Meas: meas},
	}); err != nil {
		t.Fatal(err)
	}
}

func newTestFitter(t *testing.T, fc *clock.Fake, path string) (*Fitter, *Recorder) {
	t.Helper()
	rec, err := Open(Config{HalfLife: time.Hour, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	return NewFitter(FitterConfig{Recorder: rec, Path: path, Interval: 10 * time.Second, Clock: fc}), rec
}

func TestFitterRefitNowFitsAndPersists(t *testing.T) {
	fc := clock.NewFake()
	path := filepath.Join(t.TempDir(), "profile.json")
	f, rec := newTestFitter(t, fc, path)
	if f.Active() != nil {
		t.Fatal("fresh fitter has an active profile")
	}

	// Time kinds are observed, never fitted: a loud infer residual alone
	// leaves the profile unset.
	for i := 0; i < 5; i++ {
		if err := rec.Record("fp", []Sample{{Stage: "infer:fc6", Kind: KindInfer, Est: 25, Meas: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if changed, err := f.RefitNow(); changed || err != nil {
		t.Fatalf("infer-only evidence refit: changed=%v err=%v", changed, err)
	}

	// Below the 3-sample floor nothing happens — and nothing hits the disk.
	recordStorage(t, rec, 25, 1)
	recordStorage(t, rec, 25, 1)
	if changed, err := f.RefitNow(); changed || err != nil {
		t.Fatalf("under-evidenced refit: changed=%v err=%v", changed, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("no-op refit touched the profile file")
	}

	// The third sample clears the floor: the 25x over-estimate fits 0.04.
	recordStorage(t, rec, 25, 1)
	changed, err := f.RefitNow()
	if !changed || err != nil {
		t.Fatalf("refit: changed=%v err=%v", changed, err)
	}
	p := f.Active()
	if p.scale() != 0.04 {
		t.Fatalf("active storage factor = %v, want 0.04", p.scale())
	}
	if f.Refits() != 1 {
		t.Errorf("refits = %d, want 1", f.Refits())
	}
	onDisk, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.StorageScale != 0.04 || onDisk.Refits != 1 {
		t.Errorf("persisted profile = %+v", onDisk)
	}
}

// TestFitterWindowPreventsCompounding is the regression test for the loop's
// central hazard: after a refit, the aggregates still hold the samples that
// justified it, recorded in the old correction basis. A refit that re-read
// them would multiply the same residual in again and spiral the factor into
// the clamp. Windowed evidence makes the very next tick a no-op.
func TestFitterWindowPreventsCompounding(t *testing.T) {
	fc := clock.NewFake()
	path := filepath.Join(t.TempDir(), "profile.json")
	f, rec := newTestFitter(t, fc, path)
	for i := 0; i < 5; i++ {
		recordStorage(t, rec, 25, 1)
	}
	if changed, _ := f.RefitNow(); !changed {
		t.Fatal("first refit did not fire")
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// No new evidence: repeated ticks must keep both the factor and the file
	// byte-identical.
	for i := 0; i < 3; i++ {
		fc.Advance(10 * time.Second)
		if changed, err := f.RefitNow(); changed || err != nil {
			t.Fatalf("tick %d without evidence: changed=%v err=%v", i, changed, err)
		}
	}
	if got := f.Active().scale(); got != 0.04 {
		t.Fatalf("factor compounded to %v, want stable 0.04", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("no-op refits rewrote the profile file")
	}

	// Post-refit runs record residual ≈ 1 (the profile corrected the
	// estimates before they were logged): still a no-op, the fixed point.
	for i := 0; i < 5; i++ {
		recordStorage(t, rec, 1, 1)
	}
	if changed, _ := f.RefitNow(); changed {
		t.Error("residual-1 evidence moved the profile")
	}

	// A genuine new drift on fresh evidence still refits, composing onto the
	// existing factor: residual 2 on 0.04 → 0.08.
	for i := 0; i < 5; i++ {
		recordStorage(t, rec, 1, 2)
	}
	if changed, _ := f.RefitNow(); !changed {
		t.Fatal("fresh drift ignored")
	}
	got := f.Active().scale()
	// The residual-1 samples above share the window, so the fit lands between
	// 1 and 2; assert it moved up and stayed under the naive compound.
	if got <= 0.04 || got > 0.08 {
		t.Errorf("recomposed factor = %v, want in (0.04, 0.08]", got)
	}
	if f.Refits() != 2 {
		t.Errorf("refits = %d, want 2", f.Refits())
	}
}

// TestFitterBootSnapshotIgnoresReplayedLog pins NewFitter's baseline: history
// replayed from disk was recorded under past processes' profiles, so a fresh
// fitter must not fit it.
func TestFitterBootSnapshotIgnoresReplayedLog(t *testing.T) {
	fc := clock.NewFake()
	logPath := filepath.Join(t.TempDir(), "calib.log")
	rec, err := Open(Config{Path: logPath, HalfLife: time.Hour, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		recordStorage(t, rec, 25, 1)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := Open(Config{Path: logPath, HalfLife: time.Hour, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	f := NewFitter(FitterConfig{Recorder: rec2, Clock: fc})
	if changed, _ := f.RefitNow(); changed {
		t.Fatal("replayed history alone triggered a refit")
	}
	// Live evidence on top of the replay does refit — and the replayed
	// samples share the same basis here (no profile was ever active), so the
	// fit may legitimately use only the new window.
	for i := 0; i < 3; i++ {
		recordStorage(t, rec2, 25, 1)
	}
	if changed, _ := f.RefitNow(); !changed {
		t.Fatal("live evidence ignored after replay")
	}
	if got := f.Active().scale(); got != 0.04 {
		t.Errorf("fitted factor = %v, want 0.04", got)
	}
}

func TestFitterSwapSticksWhenPersistFails(t *testing.T) {
	defer faultinject.DisarmAll()
	fc := clock.NewFake()
	path := filepath.Join(t.TempDir(), "profile.json")
	f, rec := newTestFitter(t, fc, path)
	for i := 0; i < 3; i++ {
		recordStorage(t, rec, 25, 1)
	}
	faultinject.Arm(FaultProfileSave+".write", faultinject.FailAlways())
	changed, err := f.RefitNow()
	if !changed {
		t.Fatal("refit did not fire")
	}
	if err == nil {
		t.Fatal("injected persist failure not surfaced")
	}
	// Pricing still sees the new factors: a lost disk write must not pin the
	// process to stale constants.
	if got := f.Active().scale(); got != 0.04 {
		t.Errorf("active factor after failed persist = %v, want 0.04", got)
	}
}

// TestFitterPersistsBeforePublishing pins the refit's ordering: at the moment
// the profile file is about to take its final name, nothing observable
// (Active, Refits) may already report the refit — otherwise a poller that
// sees the new refit count can read a profile file that does not exist yet.
func TestFitterPersistsBeforePublishing(t *testing.T) {
	defer faultinject.DisarmAll()
	fc := clock.NewFake()
	path := filepath.Join(t.TempDir(), "profile.json")
	f, rec := newTestFitter(t, fc, path)
	for i := 0; i < 3; i++ {
		recordStorage(t, rec, 25, 1)
	}
	visits := 0
	faultinject.Arm(FaultProfileSave+".rename", faultinject.Callback(func() {
		visits++
		if f.Active() != nil || f.Refits() != 0 {
			t.Errorf("refit published before its profile file was renamed into place: active=%v refits=%d",
				f.Active(), f.Refits())
		}
	}))
	if changed, err := f.RefitNow(); !changed || err != nil {
		t.Fatalf("refit: changed=%v err=%v", changed, err)
	}
	if visits != 1 {
		t.Fatalf("rename site visited %d times, want 1", visits)
	}
	if f.Refits() != 1 {
		t.Errorf("refits after RefitNow = %d, want 1", f.Refits())
	}
}

func TestFitterTickerLoopOnFakeClock(t *testing.T) {
	defer faultinject.DisarmAll()
	fc := clock.NewFake()
	path := filepath.Join(t.TempDir(), "profile.json")
	f, rec := newTestFitter(t, fc, path)
	for i := 0; i < 4; i++ {
		recordStorage(t, rec, 25, 1)
	}
	// The loop's refit persists the profile before publishing it, holding
	// f.mu throughout; the save's rename is the event that a refit is under
	// way, and taking f.mu afterwards waits for it to be published.
	persisting := make(chan struct{}, 1)
	faultinject.Arm(FaultProfileSave+".rename", faultinject.Callback(func() {
		select {
		case persisting <- struct{}{}:
		default:
		}
	}))
	f.Start()
	defer f.Stop()
	fc.BlockUntil(1) // loop's ticker is registered

	// Nothing fires before the interval elapses.
	fc.Advance(9 * time.Second)
	if f.Refits() != 0 {
		t.Fatal("refit fired before the interval")
	}
	fc.Advance(time.Second)
	<-persisting
	f.mu.Lock() // empty critical section: returns once the refit holding f.mu published
	f.mu.Unlock()
	if f.Refits() != 1 {
		t.Fatalf("refits after the first tick = %d, want 1", f.Refits())
	}
	if got := f.Active().scale(); got != 0.04 {
		t.Errorf("loop-fitted factor = %v, want 0.04", got)
	}
	// Later ticks with no evidence stay no-ops (windowing), so the count is
	// exact, not monotonically drifting.
	fc.Advance(30 * time.Second)
	if f.Refits() != 1 {
		t.Errorf("refits after idle ticks = %d, want 1", f.Refits())
	}
	f.Stop()
	// Stop is idempotent and nil-safe.
	f.Stop()
	var nilFitter *Fitter
	nilFitter.Stop()
	if nilFitter.Active() != nil {
		t.Error("nil fitter has an active profile")
	}
}

func TestFitterMetrics(t *testing.T) {
	fc := clock.NewFake()
	f, rec := newTestFitter(t, fc, "")
	reg := obs.NewRegistry()
	f.RegisterMetrics(reg)
	for i := 0; i < 3; i++ {
		recordStorage(t, rec, 25, 1)
	}
	if _, err := f.RefitNow(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`vista_calib_profile_scale{stage="storage"} 0.04`,
		`vista_calib_profile_refits_total 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("scrape missing %q:\n%s", want, buf.String())
		}
	}
	// The profile is one storage factor: no time kind exports a scale.
	if n := strings.Count(buf.String(), "\nvista_calib_profile_scale{"); n != 1 {
		t.Errorf("scrape has %d vista_calib_profile_scale series, want 1:\n%s", n, buf.String())
	}
}
