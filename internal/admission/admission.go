// Package admission implements memory-budget-weighted admission control for
// concurrent feature-transfer runs.
//
// Each run is priced up front in bytes — the cluster-wide Storage + User +
// DL Execution Memory its optimizer decision reserves (the paper's Section
// 4.1 memory model, Equations 9–15, rendered by sim.DecisionCost and
// core.Price) — and a Controller admits it only while the sum of in-flight
// reservations fits a configured byte budget. Runs that do not fit wait in a
// bounded strict-FIFO queue with a deadline; the caller maps a deadline
// expiry to HTTP 429 (retry later) and a full queue or an unpayable price to
// HTTP 503. This turns the optimizer's single-run crash-avoidance model into
// a multi-query resource arbiter: the server never starts a set of runs
// whose combined reservations exceed what the host can hold.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Sentinel errors returned by Admit. The server maps ErrDeadline to 429 +
// Retry-After and ErrQueueFull / ErrOversize to 503.
var (
	// ErrQueueFull means the wait queue is at capacity; the request was
	// rejected without waiting.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrDeadline means the request waited its full queue timeout without
	// enough budget freeing up.
	ErrDeadline = errors.New("admission: queue deadline exceeded")
	// ErrOversize means the request's cost exceeds the whole budget: it can
	// never be admitted, no matter how long it waits.
	ErrOversize = errors.New("admission: cost exceeds budget")
)

// Config sizes a Controller.
type Config struct {
	// BudgetBytes is the total admission budget: the sum of in-flight
	// grant costs never exceeds it. Must be positive.
	BudgetBytes int64
	// QueueDepth bounds how many requests may wait for budget at once;
	// further requests fail fast with ErrQueueFull. Zero disables queueing
	// (admit-or-reject).
	QueueDepth int
	// QueueTimeout bounds how long one request waits in the queue before
	// giving up with ErrDeadline. Zero means wait only on the caller's
	// context.
	QueueTimeout time.Duration
	// Metrics, when non-nil, receives the controller's observability
	// series (vista_admission_*).
	Metrics *obs.Registry
	// Clock is the time source for queue deadlines and wait measurement
	// (nil = the wall clock). Tests inject clock.NewFake() to step queue
	// timeouts deterministically.
	Clock clock.Clock
}

// Stats is a point-in-time snapshot of a Controller's accounting. The
// counter identity  Admitted + RejectedDeadline + RejectedQueueFull +
// RejectedOversize + Cancelled == requests submitted  holds at quiescence.
type Stats struct {
	BudgetBytes   int64 // configured budget
	InFlightBytes int64 // sum of outstanding grant costs
	InFlightRuns  int   // outstanding grants
	QueueDepth    int   // requests currently waiting

	Admitted          int64 // grants issued (fast path or promoted)
	RejectedDeadline  int64 // waits that hit the queue timeout
	RejectedQueueFull int64 // rejected because the queue was full
	RejectedOversize  int64 // rejected because cost > budget
	Cancelled         int64 // waits abandoned by context cancellation
}

// waiter is one queued request. ready is buffered so the promoter never
// blocks handing over a grant, even if the waiter is concurrently giving up.
type waiter struct {
	cost  int64
	ready chan *Grant
}

// retryHintWindow is how many recent queued-request waits RetryHint's p50
// estimate sees: small enough to track load shifts within seconds, large
// enough that one outlier does not swing the hint.
const retryHintWindow = 64

// Controller admits runs against a byte budget. A nil *Controller is valid
// and admits everything immediately (admission disabled).
type Controller struct {
	cfg Config
	clk clock.Clock

	mu       sync.Mutex
	inflight int64
	running  int
	queue    []*waiter // strict FIFO: queue[0] is always next

	admitted     int64
	rejDeadline  int64
	rejQueueFull int64
	rejOversize  int64
	cancelled    int64

	// recentWaits is a ring of the latest waits of requests that actually
	// queued (admitted after waiting, deadline-expired, or cancelled while
	// parked); RetryHint reads it. Fast-path outcomes — immediate admits,
	// queue-full and oversize rejections — are excluded: they resolve in
	// microseconds and say nothing about how long the queue takes to drain,
	// and recording them would collapse the p50 to zero under load.
	recentWaits [retryHintWindow]time.Duration
	recentIdx   int
	recentN     int

	waitHist *obs.Histogram // nil when cfg.Metrics is nil
}

// New builds a Controller and registers its metrics (when cfg.Metrics is
// set): in-flight bytes and queue-depth gauges, admitted / rejected /
// cancelled counters, and the queue-wait histogram
// vista_admission_queue_wait_seconds observed once per submitted request,
// whatever its outcome.
func New(cfg Config) (*Controller, error) {
	if cfg.BudgetBytes <= 0 {
		return nil, fmt.Errorf("admission: budget must be positive, got %d", cfg.BudgetBytes)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("admission: queue depth must be >= 0, got %d", cfg.QueueDepth)
	}
	c := &Controller{cfg: cfg, clk: clock.Or(cfg.Clock)}
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("vista_admission_budget_bytes",
			"Configured admission budget in bytes.",
			func() float64 { return float64(cfg.BudgetBytes) })
		reg.GaugeFunc("vista_admission_inflight_bytes",
			"Sum of admitted, unreleased run costs in bytes.",
			func() float64 { return float64(c.Stats().InFlightBytes) })
		reg.GaugeFunc("vista_admission_inflight_runs",
			"Number of admitted, unreleased runs.",
			func() float64 { return float64(c.Stats().InFlightRuns) })
		reg.GaugeFunc("vista_admission_queue_depth",
			"Requests currently waiting for admission budget.",
			func() float64 { return float64(c.Stats().QueueDepth) })
		reg.CounterFunc("vista_admission_admitted_total",
			"Requests granted admission.",
			func() float64 { return float64(c.Stats().Admitted) })
		reg.CounterFunc("vista_admission_rejected_total",
			"Requests rejected: queue deadline exceeded.",
			func() float64 { return float64(c.Stats().RejectedDeadline) },
			obs.Label{Key: "reason", Value: "deadline"})
		reg.CounterFunc("vista_admission_rejected_total",
			"Requests rejected: wait queue full.",
			func() float64 { return float64(c.Stats().RejectedQueueFull) },
			obs.Label{Key: "reason", Value: "queue_full"})
		reg.CounterFunc("vista_admission_rejected_total",
			"Requests rejected: cost exceeds the whole budget.",
			func() float64 { return float64(c.Stats().RejectedOversize) },
			obs.Label{Key: "reason", Value: "oversize"})
		reg.CounterFunc("vista_admission_cancelled_total",
			"Queued requests abandoned by context cancellation.",
			func() float64 { return float64(c.Stats().Cancelled) })
		c.waitHist = reg.Histogram("vista_admission_queue_wait_seconds",
			"Time from admission request to grant or rejection.", obs.DefBuckets)
	}
	return c, nil
}

// Stats snapshots the controller's accounting. Safe on nil (all zeros).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		BudgetBytes:       c.cfg.BudgetBytes,
		InFlightBytes:     c.inflight,
		InFlightRuns:      c.running,
		QueueDepth:        len(c.queue),
		Admitted:          c.admitted,
		RejectedDeadline:  c.rejDeadline,
		RejectedQueueFull: c.rejQueueFull,
		RejectedOversize:  c.rejOversize,
		Cancelled:         c.cancelled,
	}
}

// Grant is one admitted reservation. Release returns its bytes to the
// budget; it is idempotent and safe on nil (disabled controller).
type Grant struct {
	c    *Controller
	cost int64
	once sync.Once
}

// Release returns the grant's bytes to the budget and promotes queued
// waiters in FIFO order. Idempotent; nil-safe.
func (g *Grant) Release() {
	if g == nil || g.c == nil {
		return
	}
	g.once.Do(func() {
		c := g.c
		c.mu.Lock()
		c.inflight -= g.cost
		c.running--
		c.promoteLocked()
		c.mu.Unlock()
	})
}

// ctxDoner is the subset of context.Context Admit needs; it keeps the
// package importable from anything that can hand over a done channel.
type ctxDoner interface {
	Done() <-chan struct{}
	Err() error
}

// Admit requests cost bytes of budget, waiting in FIFO order behind earlier
// requests when the budget is exhausted. It returns a *Grant the caller must
// Release, or one of ErrQueueFull, ErrDeadline, ErrOversize, or the
// context's error if ctx is cancelled while waiting. A nil Controller admits
// everything with a no-op grant.
func (c *Controller) Admit(ctx ctxDoner, cost int64) (*Grant, error) {
	if c == nil {
		return &Grant{}, nil
	}
	if cost < 0 {
		cost = 0
	}
	start := c.clk.Now()
	queued := false
	observe := func() {
		wait := c.clk.Since(start)
		if queued {
			c.recordWait(wait)
		}
		if c.waitHist != nil {
			c.waitHist.Observe(wait.Seconds())
		}
	}

	c.mu.Lock()
	if cost > c.cfg.BudgetBytes {
		c.rejOversize++
		c.mu.Unlock()
		observe()
		return nil, fmt.Errorf("%w: need %d bytes, budget %d", ErrOversize, cost, c.cfg.BudgetBytes)
	}
	// Fast path: budget available and nobody queued ahead (FIFO — a new
	// request must not overtake waiters).
	if len(c.queue) == 0 && c.inflight+cost <= c.cfg.BudgetBytes {
		c.inflight += cost
		c.running++
		c.admitted++
		c.mu.Unlock()
		observe()
		return &Grant{c: c, cost: cost}, nil
	}
	if len(c.queue) >= c.cfg.QueueDepth {
		c.rejQueueFull++
		c.mu.Unlock()
		observe()
		return nil, fmt.Errorf("%w: %d waiting", ErrQueueFull, c.cfg.QueueDepth)
	}
	w := &waiter{cost: cost, ready: make(chan *Grant, 1)}
	c.queue = append(c.queue, w)
	queued = true
	c.mu.Unlock()

	var timeout <-chan time.Time
	if c.cfg.QueueTimeout > 0 {
		t := c.clk.NewTimer(c.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C()
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}

	select {
	case g := <-w.ready:
		observe()
		return g, nil
	case <-timeout:
		if g := c.abandon(w, &c.rejDeadline); g != nil {
			// The grant raced the timer: it is already charged and
			// counted admitted, so take it — rejecting now would just
			// waste the reserved budget.
			observe()
			return g, nil
		}
		observe()
		return nil, fmt.Errorf("%w: waited %s", ErrDeadline, c.cfg.QueueTimeout)
	case <-done:
		if g := c.abandon(w, &c.cancelled); g != nil {
			// The grant raced the cancellation; the caller is gone, so
			// return the budget immediately. The request stays counted
			// as admitted (the grant was issued) — each request lands in
			// exactly one outcome counter.
			g.Release()
		}
		observe()
		return nil, ctx.Err()
	}
}

// recordWait appends one queued request's wait to the RetryHint ring.
func (c *Controller) recordWait(d time.Duration) {
	c.mu.Lock()
	c.recentWaits[c.recentIdx] = d
	c.recentIdx = (c.recentIdx + 1) % retryHintWindow
	if c.recentN < retryHintWindow {
		c.recentN++
	}
	c.mu.Unlock()
}

// RetryHint estimates how long a 429'd client should back off before
// retrying, from current admission state: the p50 of recent queued-request
// waits scaled by queue occupancy, floored at 1s and capped at twice the
// queue timeout.
//
// The hint must vary with admission state. A static hint (the old behavior:
// always the full queue timeout) synchronizes obedient clients — every 429'd
// client that already waited the timeout retries in lockstep, so the server
// sees load spikes at exact queue-timeout intervals instead of a smooth
// retry trickle. Because this hint tracks the live wait distribution and the
// queue's occupancy at rejection time, staggered rejections see different
// states and spread their retries out. Safe on nil (1s).
func (c *Controller) RetryHint() time.Duration {
	if c == nil {
		return time.Second
	}
	c.mu.Lock()
	n := c.recentN
	waits := make([]time.Duration, n)
	copy(waits, c.recentWaits[:n])
	occupancy := 0.0
	if c.cfg.QueueDepth > 0 {
		occupancy = float64(len(c.queue)) / float64(c.cfg.QueueDepth)
	}
	timeout := c.cfg.QueueTimeout
	c.mu.Unlock()

	hint := time.Second
	if n > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		p50 := waits[(n-1)/2]
		// An empty queue halves the estimate (budget frees soon); a full
		// queue means a retry waits behind everyone, so scale up to 1.5x.
		hint = time.Duration(float64(p50) * (0.5 + occupancy))
	}
	if hint < time.Second {
		hint = time.Second
	}
	if timeout > 0 && hint > 2*timeout {
		hint = 2 * timeout
	}
	return hint
}

// abandon removes w from the queue, crediting *outcome on success. If w was
// already promoted (the grant raced the giving-up), it returns that grant —
// already charged against the budget and counted admitted — and credits
// nothing; the caller decides whether to keep or release it.
func (c *Controller) abandon(w *waiter, outcome *int64) *Grant {
	c.mu.Lock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i:i], c.queue[i+1:]...)
			*outcome++
			c.mu.Unlock()
			return nil
		}
	}
	// Not queued ⇒ promoteLocked already delivered a grant to w.ready
	// (buffered send, so it is there by now).
	c.mu.Unlock()
	return <-w.ready
}

// promoteLocked hands budget to queued waiters in strict FIFO order: it
// stops at the first waiter that does not fit, so later (smaller) requests
// never starve earlier ones. Caller holds c.mu.
func (c *Controller) promoteLocked() {
	for len(c.queue) > 0 {
		w := c.queue[0]
		if c.inflight+w.cost > c.cfg.BudgetBytes {
			return
		}
		c.queue = c.queue[1:]
		c.inflight += w.cost
		c.running++
		c.admitted++
		w.ready <- &Grant{c: c, cost: w.cost}
	}
}
