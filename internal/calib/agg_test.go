package calib

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sim"
)

// stageTrace builds a run span with one child per stage label.
func stageTrace(stages ...string) *obs.Span {
	root := obs.StartSpan("run")
	for _, st := range stages {
		root.StartChild(st).End()
	}
	root.End()
	return root
}

// A run's calibration samples are its two storage pairs in absolute bytes,
// whatever stages its trace holds: no time stage becomes a sample.
func TestSamplesFromRunStorageOnly(t *testing.T) {
	trace := stageTrace("ingest", "join", "infer:fc6", "train:fc6", "frobnicate:x")
	rep := sim.StorageReport{
		PredPeakStorageBytes: 1 << 20, MeasPeakStorageBytes: 2 << 20,
		PredSpillBytes: 3 << 20, MeasSpillBytes: 5 << 20,
	}
	want := []Sample{
		{Stage: "storage:peak", Est: 1 << 20, Meas: 2 << 20},
		{Stage: "storage:spill", Est: 3 << 20, Meas: 5 << 20},
	}
	if got := samplesFromRun(trace, rep); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	// A pair with neither side is no evidence: a run that neither predicted
	// nor measured spill records only its peak.
	rep.PredSpillBytes, rep.MeasSpillBytes = 0, 0
	if got := samplesFromRun(trace, rep); !reflect.DeepEqual(got, want[:1]) {
		t.Fatalf("spill-free samples = %+v, want %+v", got, want[:1])
	}
}

func TestAggregatorExclusions(t *testing.T) {
	a := NewAggregator()
	a.Add(Record{At: time.Unix(1000, 0), Samples: []Sample{
		{Stage: "storage:peak", Est: 1 << 20, Meas: 1 << 20},
		{Stage: "storage:peak", Est: 1 << 20, Meas: 1 << 19, Cached: true},
		{Stage: "storage:peak", Est: 1 << 20, Meas: 1 << 19, Shared: true},
		{Stage: "storage:spill", Est: 0, Meas: 1 << 20}, // no estimate
		{Stage: "storage:spill", Est: 1 << 20, Meas: 0}, // nothing measured
	}})
	rep := a.Report()
	if rep.Runs != 1 || rep.Samples != 1 || rep.Excluded != 4 {
		t.Fatalf("runs/samples/excluded = %d/%d/%d, want 1/1/4", rep.Runs, rep.Samples, rep.Excluded)
	}
	if rep.DriftRatio != 1 {
		t.Fatalf("drift ratio = %v, want the one counted sample's 1", rep.DriftRatio)
	}
}

// storageRecord is a record of one storage:peak sample with the given ratio.
func storageRecord(at time.Time, est, meas float64) Record {
	return Record{At: at, Samples: []Sample{{Stage: "storage:peak", Est: est, Meas: meas}}}
}

func TestAggregatorEWMADecay(t *testing.T) {
	t0 := time.Unix(10000, 0)
	a := NewAggregator()

	a.Add(storageRecord(t0, 1<<20, 4<<20))
	if got := a.drift(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("after one ratio-4 sample, drift ratio = %g, want 4", got)
	}

	// One half-life later a ratio-1 sample arrives: the old sample's weight
	// decays to 0.5, so the mean log-ratio is (0.5·ln4 + 1·0)/1.5 = ln4/3
	// and the drift ratio is 4^(1/3).
	a.Add(storageRecord(t0.Add(DefaultHalfLife), 1<<20, 1<<20))
	want := math.Pow(4, 1.0/3)
	if got := a.drift(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after decayed second sample, drift ratio = %g, want 4^(1/3) = %g", got, want)
	}
	rep := a.Report()
	if got := rep.DriftRatio; got != round6(want) {
		t.Fatalf("reported drift ratio = %v, want %v", got, round6(want))
	}
	// Drift is the symmetric magnitude: max(r, 1/r) − 1.
	if got := rep.Drift; got != round6(want-1) {
		t.Fatalf("reported drift = %v, want %v", got, round6(want-1))
	}
}

func TestAggregatorSameTimestampSamplesWeighEqually(t *testing.T) {
	a := NewAggregator()
	a.Add(Record{At: time.Unix(10000, 0), Samples: []Sample{
		{Stage: "storage:peak", Est: 1 << 20, Meas: 4 << 20},
		{Stage: "storage:spill", Est: 1 << 20, Meas: 1 << 20},
	}})
	// Equal weights: mean = (ln4 + ln1)/2 = ln2 → ratio 2. The classic
	// w·prev + (1−w)·x recurrence would instead discount the first sample.
	if got := a.drift(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("same-timestamp drift ratio = %g, want 2", got)
	}
}

func TestAggregatorUndershootSymmetric(t *testing.T) {
	a := NewAggregator()
	a.Add(storageRecord(time.Unix(1000, 0), 4<<20, 1<<20))
	rep := a.Report()
	// Measured 4x UNDER estimate: ratio 0.25, but drift magnitude is the
	// same 3.0 an overshoot of 4x would produce.
	if rep.DriftRatio != 0.25 || rep.Drift != 3 {
		t.Fatalf("undershoot ratio/drift = %v/%v, want 0.25/3", rep.DriftRatio, rep.Drift)
	}
}

func TestAggregatorLeastSquaresScale(t *testing.T) {
	a := NewAggregator()
	a.Add(Record{At: time.Unix(1000, 0), Samples: []Sample{
		{Stage: "storage:peak", Est: 1 << 20, Meas: 2 << 20},
		{Stage: "storage:spill", Est: 2 << 20, Meas: 4 << 20},
	}})
	// Both samples say measurements run 2x the estimate; the least-squares
	// scale s = Σ(est·meas)/Σ(est²) recovers exactly 2.
	if got := a.Report().SuggestedScale; got != 2 {
		t.Fatalf("suggested scale = %v, want 2", got)
	}
}

func TestReportEmptyIdentity(t *testing.T) {
	rep := NewAggregator().Report()
	if rep.Samples != 0 || rep.DriftRatio != 1 || rep.Drift != 0 || rep.SuggestedScale != 1 {
		t.Errorf("empty report = %+v, want the identity calibration", rep)
	}
	if len(rep.RelErrHist) != len(relErrBounds)+1 {
		t.Errorf("histogram has %d buckets, want %d", len(rep.RelErrHist), len(relErrBounds)+1)
	}
	if rep.HalfLifeSeconds != DefaultHalfLife.Seconds() {
		t.Errorf("half-life = %v, want default %v", rep.HalfLifeSeconds, DefaultHalfLife.Seconds())
	}
}

func TestRecorderFakeClockReplayMatchesLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.log")
	fc := clock.NewFake()
	rec, err := Open(Config{Path: path, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	samples := func(meas float64) []Sample {
		return []Sample{
			{Stage: "storage:peak", Est: 1 << 20, Meas: meas * (1 << 20)},
			{Stage: "storage:spill", Est: 1 << 20, Meas: (1 - meas) * (1 << 20)},
		}
	}
	if err := rec.Record("m|d|100|1", samples(0.6)); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Minute)
	if err := rec.Record("m|d|100|2", samples(0.7)); err != nil {
		t.Fatal(err)
	}
	fc.Advance(DefaultHalfLife)
	if err := rec.Record("m|d|100|3", samples(0.4)); err != nil {
		t.Fatal(err)
	}
	live := rec.Report()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if live.Runs != 3 || live.Samples != 6 {
		t.Fatalf("live report runs/samples = %d/%d, want 3/6", live.Runs, live.Samples)
	}

	// Offline replay decays on the persisted record timestamps, so it must
	// reproduce the live aggregates exactly — the property that makes
	// `vista -calib report` trustworthy against a server's /calibration.
	replayed, dropped, err := ReplayReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("replay dropped %d bytes from a clean log", dropped)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replayed report differs from live:\nlive:     %+v\nreplayed: %+v", live, replayed)
	}

	// A restarted recorder resumes from the same log to the same state.
	rec2, err := Open(Config{Path: path, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if resumed := rec2.Report(); !reflect.DeepEqual(live, resumed) {
		t.Fatalf("resumed report differs from live:\nlive:    %+v\nresumed: %+v", live, resumed)
	}
}

func TestRenderReportTable(t *testing.T) {
	a := NewAggregator()
	a.Add(storageRecord(time.Unix(1000, 0), 1<<20, 1.1*(1<<20)))
	var b strings.Builder
	RenderReport(&b, a.Report())
	out := b.String()
	for _, want := range []string{"calibration: 1 runs, 1 samples", "drift-ratio", "1.1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered report has %d lines, want 3 (header, columns, values):\n%s", len(lines), out)
	}
}
