package sampler

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// fixedBase keeps the deterministic tests clock-free.
var fixedBase = time.Unix(1700000000, 0).UTC()

// sampleAt drives the single-writer path directly: deterministic frames
// without depending on ticker scheduling. The Every: time.Hour configs below
// park the background ticker so manual samples are the only ones between the
// initial and final frames.
func sampleAt(s *Sampler, t time.Time) { s.sample(t) }

func TestSamplerRecordsChangingValues(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("vista_pool_used_bytes", "pool", obs.Label{Key: "node", Value: "0"}, obs.Label{Key: "pool", Value: "storage"})
	g.Set(100)
	reg.Counter("unrelated_total", "excluded by match").Inc()

	s := Start(Config{Registry: reg, Every: time.Hour})
	g.Set(250)
	sampleAt(s, fixedBase.Add(time.Millisecond))
	g.Set(50)
	rec := s.Stop()

	if len(rec.Frames) < 3 {
		t.Fatalf("frames = %d, want >= 3 (initial + manual + final)", len(rec.Frames))
	}
	key := `vista_pool_used_bytes{node="0",pool="storage"}`
	if v, ok := rec.Frames[0].Value(key); !ok || v != 100 {
		t.Errorf("first frame %s = %v,%v, want 100", key, v, ok)
	}
	last := rec.Frames[len(rec.Frames)-1]
	if v, ok := last.Value(key); !ok || v != 50 {
		t.Errorf("final frame %s = %v,%v, want 50", key, v, ok)
	}
	for _, f := range rec.Frames {
		if _, ok := f.Value("unrelated_total"); ok {
			t.Errorf("match leaked unrelated series into frame %v", f)
		}
	}
}

func TestSamplerStageMarkers(t *testing.T) {
	reg := obs.NewRegistry()
	root := obs.StartSpanAt("run", fixedBase)
	s := Start(Config{Registry: reg, Trace: root, Every: time.Hour})

	ing := root.StartChildAt("ingest", fixedBase)
	sampleAt(s, fixedBase.Add(time.Millisecond))
	ing.EndAt(fixedBase.Add(2 * time.Millisecond))
	inf := root.StartChildAt("infer:fc6", fixedBase.Add(2*time.Millisecond))
	sampleAt(s, fixedBase.Add(3*time.Millisecond))
	inf.EndAt(fixedBase.Add(4 * time.Millisecond))
	rec := s.Stop()

	var stages []string
	for _, f := range rec.Frames {
		stages = append(stages, f.Stage)
	}
	// Frame 0 (taken by Start, before any stage opened) and the final frame
	// (after every stage closed) must be unmarked; the manual samples must
	// carry the then-open stage.
	want := []string{"", "ingest", "infer:fc6", ""}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Errorf("frame %d stage = %q, want %q", i, stages[i], want[i])
		}
	}
}

func TestSamplerRingOverwrite(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("vista_engine_tasks_total", "tasks")
	s := Start(Config{Registry: reg, Every: time.Hour})
	const manual = maxFrames + 8
	for i := 0; i < manual; i++ {
		c.Inc()
		sampleAt(s, fixedBase.Add(time.Duration(i)*time.Millisecond))
	}
	rec := s.Stop()

	if len(rec.Frames) != maxFrames {
		t.Fatalf("frames = %d, want the bound %d", len(rec.Frames), maxFrames)
	}
	// manual+2 total samples (initial + manual + final), maxFrames retained.
	if want := manual + 2 - maxFrames; rec.Dropped != want {
		t.Errorf("dropped = %d, want %d", rec.Dropped, want)
	}
	// Retained frames are the newest, in time order: the oldest retained is
	// manual sample 9, the newest Stop's final frame.
	if v, _ := rec.Frames[0].Value("vista_engine_tasks_total"); v != 10 {
		t.Errorf("oldest retained frame counter = %v, want 10", v)
	}
	for i := 1; i < len(rec.Frames)-1; i++ {
		if rec.Frames[i].T.Before(rec.Frames[i-1].T) {
			t.Fatalf("frames out of order at %d: %v then %v", i, rec.Frames[i-1].T, rec.Frames[i].T)
		}
	}
	if v, _ := rec.Frames[len(rec.Frames)-1].Value("vista_engine_tasks_total"); v != manual {
		t.Errorf("newest retained frame counter = %v, want %d", v, manual)
	}
}

func TestRecordingSeriesKeys(t *testing.T) {
	rec := &Recording{Frames: []Frame{
		{T: fixedBase, Values: map[string]float64{"a": 1}},
		{T: fixedBase.Add(10 * time.Millisecond), Values: map[string]float64{"a": 2, "b": 9}},
		{T: fixedBase.Add(20 * time.Millisecond), Values: map[string]float64{"a": 3}},
	}}
	keys := rec.SeriesKeys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("SeriesKeys = %v, want [a b]", keys)
	}
}

// TestSamplerLiveLoop exercises the ticker path end to end — the background
// goroutine samples concurrently with registry writes — on a fake clock, so
// the exact tick count (and therefore frame count) is deterministic instead
// of a sleep-calibrated lower bound.
func TestSamplerLiveLoop(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("vista_pool_used_bytes", "pool", obs.Label{Key: "pool", Value: "storage"})
	const ticks = 25
	// The event each frame raises: a probe series the sampler reads after the
	// gauge (series are read in name order). Sized for every frame — the
	// initial one, one per tick and Stop's final one — so it never blocks.
	sampled := make(chan struct{}, ticks+2)
	reg.GaugeFunc("vista_pool_zz_probe", "test probe", func() float64 {
		sampled <- struct{}{}
		return 0
	})
	fc := clock.NewFake()
	s := Start(Config{Registry: reg, Every: 10 * time.Millisecond, Clock: fc})
	<-sampled        // Start's initial frame
	fc.BlockUntil(1) // loop goroutine's ticker is registered

	for i := 0; i < ticks; i++ {
		g.Set(float64(i + 1))
		fc.Advance(10 * time.Millisecond)
		// The tick lands in the ticker's 1-buffered channel; wait until the
		// loop goroutine has consumed it and read the gauge before the next
		// tick, or back-to-back Advances would drop ticks like a real ticker.
		<-sampled
	}
	rec := s.Stop()
	if want := ticks + 2; len(rec.Frames) != want {
		t.Errorf("frames = %d, want exactly %d (initial + %d ticks + final)", len(rec.Frames), want, ticks)
	}
	// Each ticker frame observed the gauge value set just before its tick.
	for i, f := range rec.Frames[1 : len(rec.Frames)-1] {
		if v, ok := f.Value(`vista_pool_used_bytes{pool="storage"}`); !ok || v != float64(i+1) {
			t.Errorf("tick frame %d gauge = %v,%v, want %d", i, v, ok, i+1)
		}
	}
	if rec.Every != 10*time.Millisecond || rec.End.Before(rec.Start) {
		t.Errorf("recording metadata: every=%v start=%v end=%v", rec.Every, rec.Start, rec.End)
	}
	if rec.End.Sub(rec.Start) != ticks*10*time.Millisecond {
		t.Errorf("recording spans %v of fake time, want %v", rec.End.Sub(rec.Start), ticks*10*time.Millisecond)
	}
}
