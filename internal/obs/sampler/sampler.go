// Package sampler turns the registry's point-in-time series into a time
// series: a background goroutine periodically snapshots the run's metric
// families (pool gauges, spill/eviction counters, feature-store bytes, task
// counts) into timestamped frames while a run executes, tagging every frame
// with the stage currently open in the run's live span tree.
//
// The design goal is to observe a run without perturbing it: the registry
// reads are the same func-backed loads a /metrics scrape performs, and one
// goroutine owns the frames until Stop collects them, so nothing is shared
// with the engine. A recording holds at most maxFrames frames; a longer run
// overwrites its oldest frames and counts them as Dropped.
//
// A finished recording feeds the exporters only: Chrome trace counter tracks
// and CSV and JSON time series. Calibration reads a run's exact peak storage
// and spill volume from its span tree's root, not from a frame.
package sampler

import (
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// DefaultEvery is the sample period used when Config.Every is zero: fine
// enough that tiny in-process runs (hundreds of milliseconds) still catch
// several frames per stage, coarse enough to stay invisible in profiles.
const DefaultEvery = 10 * time.Millisecond

// maxFrames bounds a recording (at the default period, ~80 s of history
// before frames drop).
const maxFrames = 8192

// match selects the run-relevant families: engine counters, per-node pool
// gauges, and feature-store series. HTTP server series are excluded — they
// describe the service, not the run.
func match(name string) bool {
	for _, p := range []string{"vista_engine_", "vista_pool_", "vista_featurestore_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Config configures a Sampler.
type Config struct {
	// Registry is the metrics registry to snapshot (required).
	Registry *obs.Registry
	// Trace, when non-nil, is the run's live span tree; each frame records
	// the name of the top-level stage span open at sample time.
	Trace *obs.Span
	// Every is the sample period (0 = DefaultEvery).
	Every time.Duration
	// Clock supplies time and the sampling ticker (nil = the real clock).
	// Tests inject a fake to step the loop deterministically.
	Clock clock.Clock
}

// Frame is one sampling instant: every selected series' value, keyed by the
// series' fully qualified identity (family name + rendered labels).
type Frame struct {
	// T is the sample time.
	T time.Time
	// Stage is the top-level stage span open at sample time ("" when the
	// run is between stages or no trace was attached).
	Stage string
	// Values maps series key (obs.Sample.Key) to its sampled value.
	Values map[string]float64
}

// Value returns the frame's value for an exact series key (a label-less
// family's key is just its name).
func (f Frame) Value(key string) (float64, bool) {
	v, ok := f.Values[key]
	return v, ok
}

// Recording is a finished sampling session, frames oldest to newest.
type Recording struct {
	// Every is the configured sample period.
	Every time.Duration
	// Start and End bound the session (first and last frame times).
	Start, End time.Time
	// Frames are the retained samples in time order.
	Frames []Frame
	// Dropped counts the oldest frames overwritten once the recording held
	// maxFrames.
	Dropped int
}

// SeriesKeys returns the sorted union of series keys across all frames —
// the exporters' stable column set.
func (r *Recording) SeriesKeys() []string {
	seen := make(map[string]bool)
	for _, f := range r.Frames {
		for k := range f.Values {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sampler snapshots a registry on a fixed period. Start it before the run,
// Stop it after; Stop returns the Recording.
type Sampler struct {
	cfg Config
	clk clock.Clock
	// frames is a ring once it holds maxFrames; n counts frames ever taken.
	// Start's first frame is taken before the loop goroutine starts and
	// Stop's last one after it exits, so the goroutine is their only writer
	// in between and nothing reads them until Stop.
	frames []Frame
	n      int
	stop   chan struct{}
	done   chan struct{}
	start  time.Time
}

// Start begins sampling in a background goroutine. It takes one frame
// immediately, so even runs shorter than the period record their state, and
// Stop takes a final frame, so every recording holds at least two.
func Start(cfg Config) *Sampler {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	s := &Sampler{
		cfg:  cfg,
		clk:  clock.Or(cfg.Clock),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.start = s.clk.Now()
	s.sample(s.start)
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := s.clk.NewTicker(s.cfg.Every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C():
			// Stamp with the clock, not the tick's own time: a late tick
			// can carry a later time than the punctual one after it, and
			// frames promise time order.
			s.sample(s.clk.Now())
		case <-s.stop:
			return
		}
	}
}

// sample takes one frame, overwriting the oldest once the recording is full.
func (s *Sampler) sample(t time.Time) {
	f := Frame{T: t, Stage: openStage(s.cfg.Trace), Values: make(map[string]float64)}
	for _, sm := range s.cfg.Registry.Samples(match) {
		f.Values[sm.Key()] = sm.Value
	}
	if len(s.frames) < maxFrames {
		s.frames = append(s.frames, f)
	} else {
		s.frames[s.n%maxFrames] = f
	}
	s.n++
}

// openStage returns the name of the last top-level child span of root that
// has started but not ended.
func openStage(root *obs.Span) string {
	if root == nil {
		return ""
	}
	children := root.Children()
	for i := len(children) - 1; i >= 0; i-- {
		if _, ended := children[i].EndTime(); !ended {
			return children[i].Name()
		}
	}
	return ""
}

// Stop halts sampling, takes a final frame, and returns the recording.
// Stop must be called exactly once.
func (s *Sampler) Stop() *Recording {
	close(s.stop)
	<-s.done
	s.sample(s.clk.Now())

	frames := s.frames
	if s.n > maxFrames {
		oldest := s.n % maxFrames
		frames = append(frames[oldest:len(frames):len(frames)], frames[:oldest]...)
	}
	return &Recording{
		Every:   s.cfg.Every,
		Start:   s.start,
		End:     frames[len(frames)-1].T,
		Frames:  frames,
		Dropped: s.n - len(frames),
	}
}
