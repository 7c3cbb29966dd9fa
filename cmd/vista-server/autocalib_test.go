package main

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/clock"
	"repro/internal/faultinject"
)

// driftByKind indexes a /calibration JSON body's evidenced stages by kind.
func driftByKind(t *testing.T, body map[string]any) map[string]map[string]any {
	t.Helper()
	out := make(map[string]map[string]any)
	for _, s := range body["stages"].([]any) {
		st := s.(map[string]any)
		if st["samples"].(float64) > 0 {
			out[st["kind"].(string)] = st
		}
	}
	if len(out) == 0 {
		t.Fatal("no evidenced stages in /calibration report")
	}
	return out
}

// TestAutoCalibrateClosesLoopEndToEnd drives the whole feedback loop through
// the server: /run traffic under a deliberate 25x inference mis-calibration,
// the periodic fitter (on a fake clock) refitting a profile from the drift it
// causes, the profile persisting to disk and annotating /calibration, and —
// the point of the loop — subsequent runs recording residual drift inside the
// [0.5, 2.0] convergence band for every evidenced kind.
//
// Note where the drift shows up: time samples are share-normalized, and the
// inference estimate already dominates the run's estimated shape, so
// inflating it 25x mostly *deflates* every other kind's estimated share —
// the injected error registers as train/ingest/join drift, exactly as the
// single-kind scenario's fixed-point arithmetic predicts (docs/CALIBRATION.md).
func TestAutoCalibrateClosesLoopEndToEnd(t *testing.T) {
	fc := clock.NewFake()
	profilePath := filepath.Join(t.TempDir(), "profile.json")
	// A short half-life so pre-refit evidence fades quickly once the clock
	// advances; it flows through serverConfig exactly as -calib-half-life does.
	rec, err := calib.Open(calib.Config{HalfLife: 5 * time.Second, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	a := newAPI(serverConfig{
		sloP99:           defaultSLOP99,
		clk:              fc,
		calib:            rec,
		calibInferScale:  25,
		autoCalibrate:    true,
		calibProfilePath: profilePath,
		refitInterval:    10 * time.Second,
	})
	h := a.handler()

	// One feature layer keeps each kind's samples homogeneous, so a per-kind
	// factor can actually converge the drift it causes.
	const runBody = `{"model":"tiny-alexnet","dataset":"foods","layers":1,"rows":400}`
	for i := 0; i < 3; i++ {
		if code, body := doJSON(t, h, "POST", "/run", runBody); code != 200 {
			t.Fatalf("run %d = %d %v", i, code, body)
		}
	}
	code, before := doJSON(t, h, "GET", "/calibration", "")
	if code != 200 {
		t.Fatalf("calibration = %d", code)
	}
	if _, ok := before["profile"]; ok {
		t.Fatal("profile annotation present before any refit")
	}
	pre := driftByKind(t, before)
	if d := pre["train"]["drift_ratio"].(float64); d <= 2 {
		t.Fatalf("train drift before refit = %v, want > 2 (deflated by the 25x infer share)", d)
	}
	if d := pre["ingest"]["drift_ratio"].(float64); d >= 0.5 {
		t.Fatalf("ingest drift before refit = %v, want < 0.5", d)
	}
	for k, st := range pre {
		if got := st["active_scale"].(float64); got != 1 {
			t.Fatalf("active scale for %s before any refit = %v, want 1", k, got)
		}
	}

	// Start the periodic loop the way main does and let one interval elapse.
	// The profile's rename failpoint is the event that says the loop took the
	// tick and its refit is past fitting; Stop then returns once that refit
	// has published. The rounds below drive refits by hand, so the loop is
	// not needed again.
	persisting := make(chan struct{}, 1) // later, hand-driven refits find it full and move on
	faultinject.Arm(calib.FaultProfileSave+".rename", faultinject.Callback(func() {
		select {
		case persisting <- struct{}{}:
		default:
		}
	}))
	defer faultinject.DisarmAll()
	a.life.Fitter.Start()
	fc.BlockUntil(1)
	fc.Advance(10 * time.Second)
	<-persisting
	a.life.Fitter.Stop()
	if got := a.life.Fitter.Refits(); got != 1 {
		t.Fatalf("refits after one interval = %d, want 1", got)
	}

	// The refit persisted a profile that corrects the share distortion: train
	// was under-estimated (inflate), ingest over-estimated (deflate).
	onDisk, err := calib.LoadProfile(profilePath)
	if err != nil {
		t.Fatal(err)
	}
	if f := onDisk.ScaleFor(calib.KindTrain); f <= 2 {
		t.Fatalf("fitted train factor = %v, want > 2", f)
	}
	if f := onDisk.ScaleFor(calib.KindIngest); f >= 0.5 {
		t.Fatalf("fitted ingest factor = %v, want < 0.5", f)
	}
	// /calibration now carries the active profile and per-stage scales.
	code, mid := doJSON(t, h, "GET", "/calibration", "")
	if code != 200 {
		t.Fatalf("calibration after refit = %d", code)
	}
	if _, ok := mid["profile"]; !ok {
		t.Fatal("no profile annotation after refit")
	}
	if got, want := driftByKind(t, mid)["train"]["active_scale"].(float64),
		onDisk.ScaleFor(calib.KindTrain); got != want {
		t.Fatalf("train active_scale = %v, persisted profile says %v", got, want)
	}

	// Close the loop: rounds of "fade the old evidence, run fresh traffic,
	// refit on the residual" until every evidenced kind's drift sits inside
	// the convergence band. Real measured stage times are noisy (join is a
	// few milliseconds of wall clock), so a kind can need a second corrective
	// refit; the loop must land within a few rounds regardless.
	if _, err := os.Stat(profilePath); err != nil {
		t.Fatal(err)
	}
	converged := false
	var last map[string]map[string]any
	for round := 0; round < 3 && !converged; round++ {
		fc.Advance(30 * time.Second)
		for i := 0; i < 3; i++ {
			if code, body := doJSON(t, h, "POST", "/run", runBody); code != 200 {
				t.Fatalf("round %d run %d = %d %v", round, i, code, body)
			}
		}
		code, after := doJSON(t, h, "GET", "/calibration", "")
		if code != 200 {
			t.Fatalf("calibration after round %d = %d", round, code)
		}
		last = driftByKind(t, after)
		converged = true
		for _, st := range last {
			// A kind whose factor sits at a clamp bound has been corrected as
			// far as the guardrail allows; its residual drift is the clamp's
			// honest report of the distortion it refused to chase.
			opts := calib.DefaultFitOptions()
			if a := st["active_scale"].(float64); a <= opts.MinScale || a >= opts.MaxScale {
				continue
			}
			if d := st["drift_ratio"].(float64); d < 0.5 || d > 2.0 {
				converged = false
			}
		}
		if !converged {
			if _, err := a.life.Fitter.RefitNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !converged {
		for k, st := range last {
			t.Errorf("after 3 corrective rounds, %s drift = %v (want within [0.5, 2.0])",
				k, st["drift_ratio"])
		}
	}
	// The worst of the injected distortion is gone no matter what: train was
	// 5x+ out before the loop ran.
	if d := last["train"]["drift_ratio"].(float64); math.Abs(math.Log(d)) >=
		math.Abs(math.Log(pre["train"]["drift_ratio"].(float64))) {
		t.Errorf("train drift did not shrink: before %v after %v",
			pre["train"]["drift_ratio"], d)
	}

	// The profile surfaces on /metrics alongside the drift series.
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	scrape := w.Body.String()
	m := regexp.MustCompile(`(?m)^vista_calib_profile_scale\{stage="train"\} (\S+)$`).
		FindStringSubmatch(scrape)
	if m == nil || m[1] == "1" {
		t.Errorf("vista_calib_profile_scale{stage=\"train\"} missing or uncorrected: %v", m)
	}
	if !regexp.MustCompile(`(?m)^vista_calib_profile_refits_total [1-9]`).MatchString(scrape) {
		t.Error("vista_calib_profile_refits_total missing or zero")
	}
}

// TestPinnedProfileNeverRefits checks the pinned mode main wires when
// -calib-profile is set without -auto-calibrate: pricing and /calibration see
// the loaded profile, but no refit ever moves or rewrites it.
func TestPinnedProfileNeverRefits(t *testing.T) {
	// A conservative pin: doubling the train estimate tightens plan choice
	// without starving the engine (an aggressive infer deflation would make
	// the optimizer over-pack replicas and genuinely OOM the run — the
	// profile really does drive the plan).
	pinned := &calib.Profile{
		Version: 1,
		Refits:  7,
		Scales:  []calib.ProfileScale{{Kind: "train", Scale: 2, Samples: 9}},
	}
	a := newAPI(serverConfig{sloP99: defaultSLOP99, calibProfile: pinned})
	h := a.handler()
	if code, body := doJSON(t, h, "POST", "/run",
		`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}`); code != 200 || body["crashed"] == true {
		t.Fatalf("run = %d %v", code, body)
	}
	code, rep := doJSON(t, h, "GET", "/calibration", "")
	if code != 200 {
		t.Fatalf("calibration = %d", code)
	}
	if got := driftByKind(t, rep)["train"]["active_scale"].(float64); got != 2 {
		t.Fatalf("pinned active scale = %v, want 2", got)
	}
	// No loop was started (main only starts it under -auto-calibrate), so the
	// profile is exactly the seed.
	if got := a.life.Fitter.Active(); got != pinned {
		t.Fatalf("active profile is not the pinned seed: %+v", got)
	}
}
