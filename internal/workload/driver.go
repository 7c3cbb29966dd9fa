package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Mode selects how the driver converts a Pattern into traffic.
type Mode int

const (
	// OpenLoop offers Pattern.Rate(t) requests per wall second regardless of
	// how the server responds — the arrival process of independent clients.
	// Overload shows up as 429/503 counts, not as reduced offered load.
	OpenLoop Mode = iota
	// ClosedLoop maintains ceil(Pattern.Rate(t)) concurrent clients, each
	// issuing its next request when the previous one finishes and honoring
	// 429 Retry-After as a wall-clock backoff — the well-behaved SDK client.
	// Overload shows up as reduced throughput and backoff gaps.
	ClosedLoop
)

func (m Mode) String() string {
	if m == ClosedLoop {
		return "closed"
	}
	return "open"
}

// ParseMode maps the -mode flag values onto Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "open":
		return OpenLoop, nil
	case "closed":
		return ClosedLoop, nil
	}
	return 0, fmt.Errorf("workload: unknown mode %q (want open or closed)", s)
}

// Class buckets every offered request into exactly one outcome, so the
// timeline and the exit-code invariants can reconcile offered load against
// responses with no request unaccounted for.
type Class int

const (
	// ClassOK is a 200: the run was admitted and completed.
	ClassOK Class = iota
	// ClassThrottled is a 429: the queue deadline expired; retryable.
	ClassThrottled
	// ClassOverload is a 503: queue full or oversize; shed.
	ClassOverload
	// ClassOther is any other HTTP status — never expected from a healthy
	// admission stack, so Verify treats it like a transport failure.
	ClassOther
	// ClassTimeout is a client-side per-request timeout: the server held the
	// connection past the driver's patience.
	ClassTimeout
	// ClassTransport is a connection-level failure (refused, reset, EOF).
	ClassTransport
	// ClassShed is a driver-side drop: the in-flight cap was reached (the
	// request was never sent) or the replay was interrupted mid-request.
	// Nonzero shed in an uninterrupted run means the driver, not the
	// server, was the bottleneck — its results understate offered load.
	ClassShed
	numClasses int = iota
)

var classNames = [numClasses]string{"ok", "throttled", "overload", "other", "timeout", "transport", "shed"}

func (c Class) String() string {
	if c < 0 || int(c) >= numClasses {
		return "unknown"
	}
	return classNames[c]
}

// Doer is the slice of *http.Client the driver needs; tests substitute a
// scripted fake so the pacing loop runs on a fake clock with no sockets.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Config parameterizes one driver run.
type Config struct {
	// BaseURL is the server under test (http://host:port, no trailing slash).
	BaseURL string
	// Body is the JSON POSTed to /run for every request.
	Body string
	// Pattern is the offered-load profile (required).
	Pattern Pattern
	// Duration is the simulated span to replay (required).
	Duration time.Duration
	// TimeScale compresses simulated time: simulated seconds per wall
	// second. 1 replays in real time; 720 replays 24 h in 2 min. The profile
	// is swept faster, but instantaneous rates keep their nominal values.
	TimeScale float64
	// Tick is the timeline bucket width in simulated time (0 = Duration/60).
	Tick time.Duration
	// Mode selects open- or closed-loop traffic (default OpenLoop).
	Mode Mode
	// Client issues the requests (nil = an http.Client with RequestTimeout).
	Client Doer
	// RequestTimeout bounds one request's wall time (0 = 30s).
	RequestTimeout time.Duration
	// MaxInFlight caps concurrent requests; beyond it the driver sheds
	// locally and records ClassShed (0 = 256).
	MaxInFlight int
	// ScrapeQueueDepth samples vista_admission_queue_depth from /metrics at
	// every timeline bucket boundary.
	ScrapeQueueDepth bool
	// Clock paces the driver (nil = wall clock; tests inject a fake).
	Clock clock.Clock
}

// wallStep is the pacing quantum: the open loop accumulates fractional
// launches and the closed loop retargets concurrency once per step.
const wallStep = 10 * time.Millisecond

func (cfg *Config) defaults() error {
	if cfg.Pattern == nil {
		return errors.New("workload: Config.Pattern is required")
	}
	if cfg.Duration <= 0 {
		return errors.New("workload: Config.Duration must be positive")
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.TimeScale < 1 || math.IsInf(cfg.TimeScale, 0) || math.IsNaN(cfg.TimeScale) {
		return fmt.Errorf("workload: TimeScale %v out of range (want >= 1)", cfg.TimeScale)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = cfg.Duration / 60
	}
	if cfg.Tick <= 0 {
		cfg.Tick = cfg.Duration
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.RequestTimeout}
	}
	return nil
}

// driver is one run's mutable state. Completions land on request goroutines,
// so the aggregate state is mutex-guarded; the pacing loop itself is a single
// goroutine.
type driver struct {
	cfg   Config
	clk   clock.Clock
	start time.Time
	sem   chan struct{}
	wg    sync.WaitGroup

	mu        sync.Mutex
	buckets   []Bucket
	latencies [][]time.Duration // per-bucket, ClassOK wall latencies
	retry     map[string]int    // distinct Retry-After values on 429s

	// stepped, when non-nil, receives one value per consumed pacing step.
	// Only fake-clock tests set it: receiving after each Advance hands the
	// loop exactly one step at a time.
	stepped chan<- struct{}
}

func (d *driver) stepDone() {
	if d.stepped != nil {
		d.stepped <- struct{}{}
	}
}

// Run replays cfg.Pattern against cfg.BaseURL and returns the aggregated
// result once the simulated duration has elapsed and every in-flight request
// has completed. Cancelling ctx stops the replay early; the partial result
// is still returned with an error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	d, err := newDriver(cfg)
	if err != nil {
		return nil, err
	}
	return d.run(ctx)
}

func newDriver(cfg Config) (*driver, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	clk := clock.Or(cfg.Clock)
	n := int(cfg.Duration / cfg.Tick)
	if time.Duration(n)*cfg.Tick < cfg.Duration {
		n++
	}
	d := &driver{
		cfg:       cfg,
		clk:       clk,
		start:     clk.Now(),
		sem:       make(chan struct{}, cfg.MaxInFlight),
		buckets:   make([]Bucket, n),
		latencies: make([][]time.Duration, n),
		retry:     make(map[string]int),
	}
	for i := range d.buckets {
		start := time.Duration(i) * cfg.Tick
		d.buckets[i] = Bucket{Start: start, TargetRate: cfg.Pattern.Rate(start), QueueDepth: -1}
	}
	return d, nil
}

func (d *driver) run(ctx context.Context) (*Result, error) {
	var runErr error
	switch d.cfg.Mode {
	case ClosedLoop:
		runErr = d.closedLoop(ctx)
	default:
		runErr = d.openLoop(ctx)
	}
	d.wg.Wait() // every launched request has recorded its outcome

	res := d.result()
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// simNow maps the current wall offset to simulated time.
func (d *driver) simNow() time.Duration {
	return time.Duration(float64(d.clk.Since(d.start)) * d.cfg.TimeScale)
}

// openLoop offers rate*dt requests per pacing step with a fractional
// accumulator, so non-integer rates are honored exactly over time and the
// launch schedule is deterministic for a given profile.
func (d *driver) openLoop(ctx context.Context) error {
	tick := d.clk.NewTicker(wallStep)
	defer tick.Stop()
	var acc float64
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C():
		}
		simT := d.simNow()
		if simT >= d.cfg.Duration {
			return nil
		}
		acc += d.cfg.Pattern.Rate(simT) * wallStep.Seconds()
		for ; acc >= 1; acc-- {
			d.launch(ctx, simT)
		}
		d.bucketBoundary(simT)
		d.stepDone()
	}
}

// closedLoop retargets the worker pool to ceil(rate) once per pacing step.
// Workers self-pace: next request when the previous finishes, Retry-After
// honored as wall-clock backoff. Retirement is graceful — a retired worker
// (scale-down or run end) finishes its in-flight request and exits before
// starting the next one, so the driver never abandons a request the server
// may already have admitted; cancelled-but-admitted runs would break the
// client/server counter reconciliation and show up as driver sheds.
func (d *driver) closedLoop(ctx context.Context) error {
	tick := d.clk.NewTicker(wallStep)
	defer tick.Stop()
	runDone := make(chan struct{})
	defer close(runDone) // cuts every backoff wait short at run end
	var stops []chan struct{}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C():
		}
		simT := d.simNow()
		if simT >= d.cfg.Duration {
			return nil
		}
		target := int(math.Ceil(d.cfg.Pattern.Rate(simT)))
		for len(stops) < target {
			stop := make(chan struct{})
			stops = append(stops, stop)
			d.wg.Add(1)
			go d.worker(ctx, stop, runDone)
		}
		for len(stops) > target {
			last := len(stops) - 1
			close(stops[last])
			stops = stops[:last]
		}
		d.bucketBoundary(simT)
		d.stepDone()
	}
}

// worker is one closed-loop client: request, classify, back off, repeat,
// until retired (stop), the run ends (runDone), or ctx is cancelled. Only
// ctx cancellation aborts an in-flight request.
func (d *driver) worker(ctx context.Context, stop, runDone <-chan struct{}) {
	defer d.wg.Done()
	for ctx.Err() == nil {
		select {
		case <-stop:
			return
		case <-runDone:
			return
		default:
		}
		simT := d.simNow()
		if simT >= d.cfg.Duration {
			return
		}
		d.record(simT, offeredInc)
		class, retryAfter, _ := d.doRequest(ctx, simT)
		var backoff time.Duration
		switch class {
		case ClassThrottled:
			// Honor the server's hint: this is the herd-avoidance behavior
			// the dynamic Retry-After exists for.
			backoff = retryAfter
			if backoff <= 0 {
				backoff = time.Second
			}
		case ClassOverload, ClassTransport, ClassTimeout, ClassOther:
			// No hint on hard overload: brief fixed pause so a dead server
			// is probed, not hammered.
			backoff = 100 * time.Millisecond
		}
		if backoff > 0 {
			t := d.clk.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-stop:
				t.Stop()
				return
			case <-runDone:
				t.Stop()
				return
			case <-t.C():
			}
		}
	}
}

// launch sends one open-loop request on its own goroutine, shedding locally
// when the in-flight cap is reached.
func (d *driver) launch(ctx context.Context, simT time.Duration) {
	d.record(simT, offeredInc)
	select {
	case d.sem <- struct{}{}:
	default:
		d.record(simT, classInc(ClassShed))
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-d.sem }()
		d.doRequest(ctx, simT)
	}()
}

// doRequest issues one POST /run, classifies the outcome, and records it
// (with latency for successes) at the completion's simulated time.
func (d *driver) doRequest(ctx context.Context, launchSim time.Duration) (Class, time.Duration, error) {
	reqCtx, cancel := context.WithTimeout(ctx, d.cfg.RequestTimeout)
	defer cancel()
	began := d.clk.Now()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, d.cfg.BaseURL+"/run", strings.NewReader(d.cfg.Body))
	if err != nil {
		d.record(launchSim, classInc(ClassTransport))
		return ClassTransport, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.cfg.Client.Do(req)
	doneSim := d.simNow()
	if err != nil {
		// A per-request deadline is the server's fault (ClassTimeout); an
		// interrupted replay (ctx cancelled mid-request) is bookkept as
		// shed, not as a server transport failure.
		class := ClassTransport
		switch {
		case errors.Is(reqCtx.Err(), context.DeadlineExceeded):
			class = ClassTimeout
		case errors.Is(reqCtx.Err(), context.Canceled):
			class = ClassShed
		}
		d.record(doneSim, classInc(class))
		return class, 0, err
	}
	drainBody(resp)
	var retryAfter time.Duration
	var class Class
	switch resp.StatusCode {
	case http.StatusOK:
		class = ClassOK
		lat := d.clk.Since(began)
		d.record(doneSim, func(b *Bucket) { b.Counts[ClassOK]++ })
		d.recordLatency(doneSim, lat)
		return class, 0, nil
	case http.StatusTooManyRequests:
		class = ClassThrottled
		hint := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(hint); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		d.mu.Lock()
		d.retry[hint]++
		d.mu.Unlock()
	case http.StatusServiceUnavailable:
		class = ClassOverload
	default:
		class = ClassOther
	}
	d.record(doneSim, classInc(class))
	return class, retryAfter, nil
}

func classInc(c Class) func(*Bucket) {
	return func(b *Bucket) { b.Counts[c]++ }
}

func offeredInc(b *Bucket) { b.Offered++ }

// record applies fn to the bucket containing simulated time simT.
func (d *driver) record(simT time.Duration, fn func(*Bucket)) {
	d.mu.Lock()
	fn(&d.buckets[d.bucketIdx(simT)])
	d.mu.Unlock()
}

func (d *driver) recordLatency(simT time.Duration, lat time.Duration) {
	d.mu.Lock()
	i := d.bucketIdx(simT)
	d.latencies[i] = append(d.latencies[i], lat)
	d.mu.Unlock()
}

// bucketIdx clamps, because completions can land just past Duration.
func (d *driver) bucketIdx(simT time.Duration) int {
	i := int(simT / d.cfg.Tick)
	if i < 0 {
		i = 0
	}
	if i >= len(d.buckets) {
		i = len(d.buckets) - 1
	}
	return i
}

// bucketBoundary fires the queue-depth scrape for a bucket the pacing loop
// has just moved past. The scrape runs async so a slow /metrics endpoint
// cannot stall the launch schedule.
func (d *driver) bucketBoundary(simT time.Duration) {
	if !d.cfg.ScrapeQueueDepth {
		return
	}
	i := d.bucketIdx(simT)
	d.mu.Lock()
	fire := i > 0 && d.buckets[i-1].QueueDepth == -1 && !d.buckets[i-1].scraping
	if fire {
		d.buckets[i-1].scraping = true
	}
	d.mu.Unlock()
	if !fire {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		m, err := ScrapeMetrics(context.Background(), d.cfg.Client, d.cfg.BaseURL)
		if err != nil {
			return // the bucket keeps QueueDepth -1: "not observed"
		}
		if v, ok := m["vista_admission_queue_depth"]; ok {
			d.mu.Lock()
			d.buckets[i-1].QueueDepth = v
			d.mu.Unlock()
		}
	}()
}
