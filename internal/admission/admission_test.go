package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	g, err := c.Admit(context.Background(), 1<<40)
	if err != nil {
		t.Fatalf("nil controller Admit: %v", err)
	}
	g.Release() // must not panic
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil controller stats = %+v, want zero", s)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{BudgetBytes: 0}); err == nil {
		t.Error("New accepted zero budget")
	}
	if _, err := New(Config{BudgetBytes: 10, QueueDepth: -1}); err == nil {
		t.Error("New accepted negative queue depth")
	}
}

func TestFastPathAndRelease(t *testing.T) {
	c := newTestController(t, Config{BudgetBytes: 100})
	g1, err := c.Admit(context.Background(), 60)
	if err != nil {
		t.Fatalf("Admit(60): %v", err)
	}
	g2, err := c.Admit(context.Background(), 40)
	if err != nil {
		t.Fatalf("Admit(40): %v", err)
	}
	if s := c.Stats(); s.InFlightBytes != 100 || s.InFlightRuns != 2 || s.Admitted != 2 {
		t.Errorf("stats = %+v, want 100 in-flight over 2 runs", s)
	}
	// Queue disabled (depth 0): the next request fails fast.
	if _, err := c.Admit(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Admit over budget with no queue = %v, want ErrQueueFull", err)
	}
	g1.Release()
	g1.Release() // idempotent
	g2.Release()
	if s := c.Stats(); s.InFlightBytes != 0 || s.InFlightRuns != 0 {
		t.Errorf("stats after release = %+v, want drained", s)
	}
}

func TestOversizeNeverAdmitted(t *testing.T) {
	c := newTestController(t, Config{BudgetBytes: 100, QueueDepth: 4, QueueTimeout: time.Minute})
	if _, err := c.Admit(context.Background(), 101); !errors.Is(err, ErrOversize) {
		t.Fatalf("Admit(101/100) = %v, want ErrOversize", err)
	}
	if s := c.Stats(); s.RejectedOversize != 1 || s.QueueDepth != 0 {
		t.Errorf("stats = %+v, want one oversize rejection, empty queue", s)
	}
}

// The queue tests below run on the fake clock: a waiter registers its queue
// deadline timer right after joining the queue, so fc.BlockUntil(n) returns
// once n waiters are queued, and no deadline fires unless the test advances
// the clock.

func TestQueueFIFOPromotion(t *testing.T) {
	fc := clock.NewFake()
	c := newTestController(t, Config{BudgetBytes: 100, QueueDepth: 4, QueueTimeout: time.Minute, Clock: fc})
	g, err := c.Admit(context.Background(), 60)
	if err != nil {
		t.Fatalf("Admit(60): %v", err)
	}

	// Waiter 1 (90) cannot fit beside the 60 in flight. Waiter 2 (20)
	// could — but strict FIFO forbids overtaking, so it must wait behind
	// waiter 1, and the two promote one at a time.
	order := make(chan int, 2)
	var wg sync.WaitGroup
	admitNth := func(n int, cost int64) {
		defer wg.Done()
		g, err := c.Admit(context.Background(), cost)
		if err != nil {
			t.Errorf("waiter %d: %v", n, err)
			return
		}
		order <- n
		g.Release()
	}
	wg.Add(2)
	go admitNth(1, 90)
	fc.BlockUntil(1)
	go admitNth(2, 20)
	fc.BlockUntil(2)
	if s := c.Stats(); s.Admitted != 1 || s.QueueDepth != 2 {
		t.Fatalf("stats = %+v, want waiter 2 still queued behind waiter 1", s)
	}

	g.Release()
	wg.Wait()
	close(order)
	var got []int
	for n := range order {
		got = append(got, n)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("promotion order = %v, want [1 2] (strict FIFO)", got)
	}
	if s := c.Stats(); s.Admitted != 3 || s.InFlightBytes != 0 {
		t.Errorf("stats = %+v, want 3 admitted, drained", s)
	}
}

func TestQueueFull(t *testing.T) {
	fc := clock.NewFake()
	c := newTestController(t, Config{BudgetBytes: 10, QueueDepth: 1, QueueTimeout: time.Minute, Clock: fc})
	g, _ := c.Admit(context.Background(), 10)
	defer g.Release()

	release := make(chan struct{})
	go func() {
		w, err := c.Admit(context.Background(), 10)
		if err == nil {
			<-release
			w.Release()
		}
	}()
	fc.BlockUntil(1)
	if _, err := c.Admit(context.Background(), 10); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Admit with full queue = %v, want ErrQueueFull", err)
	}
	if s := c.Stats(); s.RejectedQueueFull != 1 {
		t.Errorf("stats = %+v, want one queue-full rejection", s)
	}
	close(release)
	g.Release()
}

// TestQueueDeadline runs the queue-timeout path on the fake clock: the
// deadline fires exactly at QueueTimeout — not a wall-clock millisecond
// earlier or later — with no real sleeps in the test.
func TestQueueDeadline(t *testing.T) {
	fc := clock.NewFake()
	c := newTestController(t, Config{BudgetBytes: 10, QueueDepth: 2, QueueTimeout: 20 * time.Second, Clock: fc})
	g, _ := c.Admit(context.Background(), 10)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), 10)
		errc <- err
	}()
	fc.BlockUntil(1) // the waiter's deadline timer is registered

	fc.Advance(19 * time.Second)
	select {
	case err := <-errc:
		t.Fatalf("deadline fired a simulated second early: %v", err)
	default:
	}
	fc.Advance(time.Second)
	if err := <-errc; !errors.Is(err, ErrDeadline) {
		t.Fatalf("Admit = %v, want ErrDeadline", err)
	}
	if s := c.Stats(); s.RejectedDeadline != 1 || s.QueueDepth != 0 {
		t.Errorf("stats = %+v, want one deadline rejection, empty queue", s)
	}
	g.Release()
	// The abandoned waiter must not receive budget later.
	if s := c.Stats(); s.InFlightBytes != 0 {
		t.Errorf("in-flight = %d after release, want 0", s.InFlightBytes)
	}
}

// TestRetryHintVariesWithAdmissionState is the herd-bug regression test at
// the controller level: rejections observed against different admission
// states (wait history, queue occupancy) must produce different hints — a
// constant hint would re-synchronize every obedient client's retry.
func TestRetryHintVariesWithAdmissionState(t *testing.T) {
	fc := clock.NewFake()
	c := newTestController(t, Config{BudgetBytes: 10, QueueDepth: 4, QueueTimeout: 10 * time.Second, Clock: fc})

	if got := c.RetryHint(); got != time.Second {
		t.Errorf("hint with no history = %v, want the 1s floor", got)
	}

	g, err := c.Admit(context.Background(), 10)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	// Fast-path admits must not dilute the estimate: the ring only tracks
	// requests that queued, so the hint is still the floor.
	if got := c.RetryHint(); got != time.Second {
		t.Errorf("hint after a fast-path admit = %v, want the 1s floor", got)
	}

	// One full-timeout rejection: queued waits {10s}, empty queue at read
	// time -> p50/2 = 5s.
	errc := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), 10)
		errc <- err
	}()
	fc.BlockUntil(1)
	fc.Advance(10 * time.Second)
	if err := <-errc; !errors.Is(err, ErrDeadline) {
		t.Fatalf("first waiter: %v, want ErrDeadline", err)
	}
	hint1 := c.RetryHint()
	if hint1 != 5*time.Second {
		t.Errorf("hint after one timeout = %v, want 5s (10s p50, empty queue)", hint1)
	}

	// Queue occupancy scales the hint up: one parked waiter in a depth-4
	// queue adds 25% -> 10s * (0.5 + 0.25) = 7.5s.
	done := make(chan struct{})
	go func() {
		g2, err := c.Admit(context.Background(), 10)
		if err != nil {
			t.Errorf("parked waiter: %v", err)
		}
		g2.Release()
		close(done)
	}()
	fc.BlockUntil(1) // the first waiter's timer fired; this is the parked one's
	hint2 := c.RetryHint()
	if hint2 != 7500*time.Millisecond {
		t.Errorf("hint with one queued waiter = %v, want 7.5s", hint2)
	}
	if hint1 == hint2 {
		t.Fatalf("staggered rejections got the same hint %v — the herd bug", hint1)
	}

	// A queued-then-admitted wait lands in the ring too: the parked waiter
	// is promoted after 6s, so queued waits become {10s, 6s} and the p50
	// drops to 6s -> empty queue hint 3s.
	fc.Advance(6 * time.Second)
	g.Release() // promotes the parked waiter
	<-done
	if got := c.RetryHint(); got != 3*time.Second {
		t.Errorf("hint after a 6s queued admit = %v, want 3s (p50 {6s,10s} -> 6s, empty queue)", got)
	}
}

func TestRetryHintNilController(t *testing.T) {
	var c *Controller
	if got := c.RetryHint(); got != time.Second {
		t.Errorf("nil controller hint = %v, want 1s", got)
	}
}

func TestQueueContextCancel(t *testing.T) {
	fc := clock.NewFake()
	c := newTestController(t, Config{BudgetBytes: 10, QueueDepth: 2, QueueTimeout: time.Minute, Clock: fc})
	g, _ := c.Admit(context.Background(), 10)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, 10)
		errc <- err
	}()
	fc.BlockUntil(1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Admit = %v, want context.Canceled", err)
	}
	if s := c.Stats(); s.Cancelled != 1 || s.QueueDepth != 0 {
		t.Errorf("stats = %+v, want one cancellation, empty queue", s)
	}
	g.Release()
	if s := c.Stats(); s.InFlightBytes != 0 {
		t.Errorf("in-flight = %d, want 0 (cancelled waiter must not be charged)", s.InFlightBytes)
	}
}

// TestOutcomeCountersReconcile hammers a tiny budget with concurrent
// requests under mixed timeouts and cancellations and checks the identity
// admitted + rejected + cancelled == submitted, with the budget drained.
func TestOutcomeCountersReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestController(t, Config{
		BudgetBytes:  100,
		QueueDepth:   8,
		QueueTimeout: 10 * time.Millisecond,
		Metrics:      reg,
	})
	const n = 64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%5 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*time.Millisecond)
				defer cancel()
			}
			g, err := c.Admit(ctx, int64(30+i%41))
			if err == nil {
				g.Release()
			}
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	total := s.Admitted + s.RejectedDeadline + s.RejectedQueueFull + s.RejectedOversize + s.Cancelled
	if total != n {
		t.Errorf("outcomes sum to %d (%+v), want %d", total, s, n)
	}
	if s.InFlightBytes != 0 || s.InFlightRuns != 0 || s.QueueDepth != 0 {
		t.Errorf("controller not drained: %+v", s)
	}
	h := reg.FindHistogram("vista_admission_queue_wait_seconds")
	if h == nil {
		t.Fatal("queue-wait histogram not registered")
	}
	if h.Count() != n {
		t.Errorf("queue-wait histogram observed %d requests, want %d", h.Count(), n)
	}
}
