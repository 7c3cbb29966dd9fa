package clock

import (
	"sync"
	"time"
)

// fakeEpoch is the Fake clock's fixed start time: an arbitrary round instant,
// so test output and golden data are stable across runs and machines.
var fakeEpoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// Fake is a manually advanced Clock for tests. Time stands still until
// Advance moves it; due timers and tickers fire in timestamp order from
// inside Advance. BlockUntil lets a test wait until goroutines under test
// have registered their timers before advancing past them.
type Fake struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast on every waiter-set or time change
	now     time.Time
	waiters []*fakeWaiter
}

// NewFake returns a Fake reading a fixed epoch (2030-01-01T00:00:00Z).
//
//vista:keep the fake clock other packages' tests drive time through
func NewFake() *Fake { return NewFakeAt(fakeEpoch) }

// NewFakeAt returns a Fake reading start.
func NewFakeAt(start time.Time) *Fake {
	f := &Fake{now: start}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// fakeWaiter is one pending timer or ticker registration.
type fakeWaiter struct {
	f      *Fake
	when   time.Time
	period time.Duration // > 0 for tickers
	ch     chan time.Time
	dead   bool // stopped or (non-periodic) fired
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since implements Clock.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// NewTimer implements Clock.
func (f *Fake) NewTimer(d time.Duration) Timer {
	return f.register(d, 0)
}

// NewTicker implements Clock.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive Fake ticker period")
	}
	return fakeTicker{f.register(d, d)}
}

// fakeTicker narrows fakeWaiter's Stop to the Ticker signature.
type fakeTicker struct{ w *fakeWaiter }

func (t fakeTicker) C() <-chan time.Time { return t.w.ch }
func (t fakeTicker) Stop()               { t.w.Stop() }

func (f *Fake) register(d, period time.Duration) *fakeWaiter {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &fakeWaiter{f: f, when: f.now.Add(d), period: period, ch: make(chan time.Time, 1)}
	f.waiters = append(f.waiters, w)
	f.cond.Broadcast()
	return w
}

// C implements Timer and Ticker.
func (w *fakeWaiter) C() <-chan time.Time { return w.ch }

// Stop implements Timer and Ticker.
func (w *fakeWaiter) Stop() bool {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	was := !w.dead
	w.dead = true
	w.f.pruneLocked()
	w.f.cond.Broadcast()
	return was
}

// pruneLocked drops dead waiters. Caller holds f.mu.
func (f *Fake) pruneLocked() {
	live := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.dead {
			live = append(live, w)
		}
	}
	f.waiters = live
}

// Advance moves the clock forward by d, firing every registration due in
// [now, now+d] in timestamp order, each with its own deadline as the fire
// time. Deliveries are non-blocking into a 1-buffered channel (time.Ticker's
// drop semantics). Advance returns once the clock reads now+d and every due
// waiter has fired.
//
//vista:keep the fake clock other packages' tests drive time through
func (f *Fake) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: negative Advance")
	}
	f.mu.Lock()
	target := f.now.Add(d)
	for {
		w := f.nextDueLocked(target)
		if w == nil {
			break
		}
		f.now = w.when
		if w.period > 0 {
			w.when = w.when.Add(w.period)
		} else {
			w.dead = true
			f.pruneLocked()
		}
		ch, at := w.ch, f.now
		f.cond.Broadcast()
		f.mu.Unlock()
		select {
		case ch <- at:
		default: // receiver behind: drop, like time.Ticker
		}
		f.mu.Lock()
	}
	f.now = target
	f.cond.Broadcast()
	f.mu.Unlock()
}

// nextDueLocked returns the earliest live waiter due at or before target
// (ties broken by registration order), or nil. Caller holds f.mu.
func (f *Fake) nextDueLocked(target time.Time) *fakeWaiter {
	idx := -1
	for i, w := range f.waiters {
		if w.dead || w.when.After(target) {
			continue
		}
		if idx < 0 || w.when.Before(f.waiters[idx].when) {
			idx = i
		}
	}
	if idx < 0 {
		return nil
	}
	return f.waiters[idx]
}

// BlockUntil blocks until at least n timers/tickers are registered
// and pending on the clock — the synchronization a test needs between
// starting a goroutine that will set a timer and advancing past that timer's
// deadline.
//
//vista:keep the fake clock other packages' tests drive time through
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.waiters) < n {
		f.cond.Wait()
	}
}
