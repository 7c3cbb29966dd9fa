// Package clock is a minimal time-source seam: the subset of package time
// the serving path depends on (Now, one-shot timers, tickers), behind an
// interface with two implementations — Real, which delegates to package
// time, and Fake, a manually advanced clock for deterministic tests.
//
// The seam exists because admission deadlines, sharing windows, and sampler
// ticks are all timing behavior the load driver (cmd/vista-load) compresses
// with a scaled simulated clock; hard-wired time.Now/time.Timer calls made
// that behavior untestable without real sleeps. Production code takes a
// Clock in its Config (nil means Real()); tests inject NewFake() and step
// time explicitly with Advance, turning sleep-and-hope timing tests into
// deterministic ones.
package clock

import "time"

// Clock is the time source. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the elapsed time between Now and t.
	Since(t time.Time) time.Duration
	// NewTimer returns a Timer that fires once, d from now.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a Ticker that fires every d. d must be positive.
	NewTicker(d time.Duration) Ticker
}

// Timer is a one-shot timer. C fires at most once.
type Timer interface {
	// C delivers the fire time.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// Ticker delivers periodic ticks on C until stopped. Like time.Ticker, ticks
// are dropped (not queued) when the receiver falls behind.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Real returns the Clock backed by package time.
func Real() Clock { return realClock{} }

// Or returns c, or Real() when c is nil — the idiom every Config normalizer
// uses so a zero-value config means "wall clock".
func Or(c Clock) Clock {
	if c == nil {
		return Real()
	}
	return c
}

type realClock struct{}

func (realClock) Now() time.Time                   { return time.Now() }
func (realClock) Since(t time.Time) time.Duration  { return time.Since(t) }
func (realClock) NewTimer(d time.Duration) Timer   { return realTimer{time.NewTimer(d)} }
func (realClock) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }
func (t realTicker) Stop()               { t.t.Stop() }
