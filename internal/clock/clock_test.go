package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	c := Real()
	before := c.Now()
	if c.Since(before) < 0 {
		t.Error("Since went backwards")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	tk := c.NewTicker(time.Millisecond)
	select {
	case <-tk.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real ticker never ticked")
	}
	tk.Stop()
}

func TestOr(t *testing.T) {
	if Or(nil) == nil {
		t.Fatal("Or(nil) = nil, want Real")
	}
	f := NewFake()
	if Or(f) != Clock(f) {
		t.Error("Or(f) did not pass f through")
	}
}

func TestFakeTimeStandsStill(t *testing.T) {
	f := NewFake()
	start := f.Now()
	if got := f.Now(); !got.Equal(start) {
		t.Errorf("Now moved without Advance: %v -> %v", start, got)
	}
	f.Advance(90 * time.Minute)
	if got := f.Since(start); got != 90*time.Minute {
		t.Errorf("Since after Advance = %v, want 90m", got)
	}
}

func TestFakeTimerFiresAtDeadline(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(10 * time.Second)
	f.Advance(9 * time.Second)
	select {
	case at := <-tm.C():
		t.Fatalf("timer fired early at %v", at)
	default:
	}
	f.Advance(time.Second)
	select {
	case at := <-tm.C():
		if want := f.Now(); !at.Equal(want) {
			t.Errorf("fire time = %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	if n := len(f.waiters); n != 0 {
		t.Errorf("fired timer still registered (%d waiters)", n)
	}
}

func TestFakeTimerStop(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Error("Stop on a pending timer = false")
	}
	if tm.Stop() {
		t.Error("second Stop = true")
	}
	f.Advance(time.Minute)
	select {
	case <-tm.C():
		t.Error("stopped timer fired")
	default:
	}
}

func TestFakeOrderedFiring(t *testing.T) {
	// Several registrations due within one Advance each fire at their own
	// deadline, not at the end of the whole Advance, and the clock still
	// reads the Advance's target afterwards.
	f := NewFake()
	start := f.Now()
	timers := make(map[time.Duration]Timer)
	for _, d := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
		timers[d] = f.NewTimer(d)
	}
	f.Advance(time.Minute)
	for d, tm := range timers {
		select {
		case at := <-tm.C():
			if want := start.Add(d); !at.Equal(want) {
				t.Errorf("%v timer fired at %v, want %v", d, at, want)
			}
		default:
			t.Errorf("%v timer did not fire within a one-minute Advance", d)
		}
	}
	if got := f.Since(start); got != time.Minute {
		t.Errorf("clock reads %v after Advance, want 1m", got)
	}
}

func TestFakeTickerDropsWhenBehind(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Second)
	f.Advance(5 * time.Second) // nobody receiving: all but one tick dropped
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Errorf("buffered ticks = %d, want 1 (drop semantics)", n)
	}
	tk.Stop()
	f.Advance(5 * time.Second)
	select {
	case <-tk.C():
		t.Error("stopped ticker ticked")
	default:
	}
}

func TestFakeTickerStepAdvance(t *testing.T) {
	// Advancing one period at a time with a live receiver delivers every tick.
	f := NewFake()
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	for i := 0; i < 5; i++ {
		f.Advance(time.Second)
		select {
		case <-tk.C():
		case <-time.After(5 * time.Second):
			t.Fatalf("tick %d never delivered", i)
		}
	}
}

func TestFakeBlockUntil(t *testing.T) {
	f := NewFake()
	done := make(chan struct{})
	go func() {
		f.BlockUntil(1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("BlockUntil(1) returned with no waiters")
	case <-time.After(10 * time.Millisecond):
	}
	tm := f.NewTimer(time.Hour)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("BlockUntil(1) never observed the registration")
	}
	tm.Stop()
}

// TestFakeConcurrentUse advances while goroutines register and wait — the
// -race run is the assertion.
func TestFakeConcurrentUse(t *testing.T) {
	f := NewFake()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tm := f.NewTimer(time.Duration(i+1) * time.Second)
			<-tm.C()
			fired.Add(1)
		}(i)
	}
	f.BlockUntil(8)
	f.Advance(10 * time.Second)
	wg.Wait()
	if fired.Load() != 8 {
		t.Errorf("fired = %d, want 8", fired.Load())
	}
}
