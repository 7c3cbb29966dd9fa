package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/lifecycle"
	"repro/internal/memory"
	"repro/internal/obs"
)

// TestRunRingOutOfOrder is the regression test for the old single-slot
// lastTrace race: a slow run finishing after a newer one must not become
// "latest".
func TestRunRingOutOfOrder(t *testing.T) {
	ring := newRunRing(4)
	const seq1, seq2 = 1, 2
	id1, id2 := runIDFor(seq1), runIDFor(seq2)
	if id1 != "run-1" || id2 != "run-2" {
		t.Fatalf("ids = %s, %s, want run-1, run-2", id1, id2)
	}

	// The newer run finishes first; the older (slower) one lands later.
	ring.complete(seq2, obs.StartSpan("new"), nil)
	ring.complete(seq1, obs.StartSpan("old"), nil)

	latest := ring.latest()
	if latest == nil || latest.id != id2 {
		t.Fatalf("latest = %+v, want %s (newest by sequence, not by completion)", latest, id2)
	}
	if got := ring.get(id1); got == nil || got.trace.Name() != "old" {
		t.Errorf("get(%s) = %+v, want the slow run's record", id1, got)
	}
}

func TestRunRingEviction(t *testing.T) {
	ring := newRunRing(2)
	for i := 0; i < 3; i++ {
		ring.complete(uint64(i+1), obs.StartSpan(fmt.Sprintf("r%d", i)), nil)
	}
	if got := ring.get("run-1"); got != nil {
		t.Errorf("run-1 survived eviction in a 2-slot ring: %+v", got)
	}
	if got := ring.ids(); len(got) != 2 || got[0] != "run-3" || got[1] != "run-2" {
		t.Errorf("ids = %v, want [run-3 run-2]", got)
	}
}

// serverSpec mirrors the core.Spec handleRun builds for runBody, so tests
// can price a /run exactly as the server will.
func serverSpec(t *testing.T, rows, layers int) core.Spec {
	t.Helper()
	structRows, imageRows, err := data.Generate(data.Foods().WithRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{
		Nodes: 2, CoresPerNode: 4,
		MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: layers,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows,
		Seed: 7,
	}
}

func runBody(rows, layers int) string {
	return fmt.Sprintf(`{"model":"tiny-alexnet","dataset":"foods","rows":%d,"layers":%d}`, rows, layers)
}

// post issues one real POST /run over the network, optionally under ctx.
func post(ctx context.Context, url, body string) (int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/run", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header, nil
}

// assertDrained closes srv and checks that the budget drained and that no
// goroutine outlived the flood. httptest's Close returns only once every
// outstanding request has completed, and a /run handler returns only after
// its lifecycle released the grant: that is the event that ends the wait for
// abandoned (client-cancelled) runs still winding down, so the admission
// counters are read exactly once. The goroutine count is the leak check for
// what a handler may leave behind after returning (engine tasks, a DL
// session, a sampler): it must come back to base, the count taken while the
// idle server was listening. Connection goroutines on both sides exit a
// moment after Close with no event to wait on, hence the bounded re-check;
// only a real leak reaches the deadline.
func assertDrained(t *testing.T, a *api, srv *httptest.Server, base int) {
	t.Helper()
	srv.Close()
	if s := a.life.Admit.Stats(); s.InFlightBytes != 0 || s.InFlightRuns != 0 || s.QueueDepth != 0 {
		t.Fatalf("not drained once every request completed: stats=%+v", s)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var stacks strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("goroutines leaked: %d now, %d before the flood\n%s", runtime.NumGoroutine(), base, stacks.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionStress floods a server whose budget fits exactly two
// concurrent runs with 16 parallel /run requests and checks that every
// response is 200, 429, or 503, that the admission counters reconcile
// exactly with the responses, and that the budget drains to zero.
func TestAdmissionStress(t *testing.T) {
	const rows, layers, parallel = 40, 2, 16
	price, err := core.Price(serverSpec(t, rows, layers))
	if err != nil {
		t.Fatalf("Price: %v", err)
	}
	a := newAPI(serverConfig{
		sloP99:         defaultSLOP99,
		memBudgetBytes: 2 * price,
		queueDepth:     4,
		queueTimeout:   500 * time.Millisecond,
	})
	srv := httptest.NewServer(a.handler())
	defer srv.Close()
	baseGoroutines := runtime.NumGoroutine()

	var mu sync.Mutex
	codes := make(map[int]int)
	var wg sync.WaitGroup
	wg.Add(parallel)
	for i := 0; i < parallel; i++ {
		go func() {
			defer wg.Done()
			code, hdr, err := post(context.Background(), srv.URL, runBody(rows, layers))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			if code == http.StatusTooManyRequests && hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			mu.Lock()
			codes[code]++
			mu.Unlock()
		}()
	}
	wg.Wait()

	for code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d (%d times)", code, codes[code])
		}
	}
	if codes[http.StatusOK] == 0 {
		t.Error("no request succeeded under admission")
	}

	s := a.life.Admit.Stats()
	if got := s.Admitted; got != int64(codes[http.StatusOK]) {
		t.Errorf("admitted = %d, want %d (the 200s)", got, codes[http.StatusOK])
	}
	if got := s.RejectedDeadline; got != int64(codes[http.StatusTooManyRequests]) {
		t.Errorf("deadline rejections = %d, want %d (the 429s)", got, codes[http.StatusTooManyRequests])
	}
	if got := s.RejectedQueueFull + s.RejectedOversize; got != int64(codes[http.StatusServiceUnavailable]) {
		t.Errorf("overload rejections = %d, want %d (the 503s)", got, codes[http.StatusServiceUnavailable])
	}
	if s.Cancelled != 0 {
		t.Errorf("cancelled = %d with no client cancellations", s.Cancelled)
	}
	assertDrained(t, a, srv, baseGoroutines)
}

// TestAdmissionStressWithCancellation mixes client-side cancellations into
// the flood: every request must land in exactly one outcome counter and the
// budget must still drain to zero — a cancelled admitted run releases its
// whole reservation.
func TestAdmissionStressWithCancellation(t *testing.T) {
	const rows, layers, parallel = 40, 2, 16
	price, err := core.Price(serverSpec(t, rows, layers))
	if err != nil {
		t.Fatalf("Price: %v", err)
	}
	a := newAPI(serverConfig{
		sloP99:         defaultSLOP99,
		memBudgetBytes: 2 * price,
		queueDepth:     8,
		queueTimeout:   2 * time.Second,
	})
	srv := httptest.NewServer(a.handler())
	defer srv.Close()
	baseGoroutines := runtime.NumGoroutine()

	var mu sync.Mutex
	codes := make(map[int]int)
	clientCancelled := 0
	var wg sync.WaitGroup
	wg.Add(parallel)
	for i := 0; i < parallel; i++ {
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(20+10*i)*time.Millisecond)
				defer cancel()
			}
			code, _, err := post(ctx, srv.URL, runBody(rows, layers))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if context.Cause(ctx) == nil {
					t.Errorf("post: %v", err)
					return
				}
				clientCancelled++
				return
			}
			codes[code]++
		}(i)
	}
	wg.Wait()

	for code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d (%d times)", code, codes[code])
		}
	}

	// Outcome reconciliation: every request that reached the controller
	// increments exactly one counter. A client that cancels fast enough can
	// tear down the connection before the handler finishes decoding the
	// body, so some requests legitimately never reach admission; the
	// queue-wait histogram (observed once per Admit, whatever the verdict)
	// is the ground truth for how many did.
	reached := int64(-1)
	for _, s := range a.metrics.Samples(func(name string) bool { return name == "vista_admission_queue_wait_seconds" }) {
		if s.Name == "vista_admission_queue_wait_seconds_count" {
			reached = int64(s.Value)
		}
	}
	if reached < 0 {
		t.Fatal("queue-wait histogram missing")
	}
	if reached > parallel {
		t.Errorf("controller saw %d requests, only %d were sent", reached, parallel)
	}
	if want := int64(codes[http.StatusOK] + codes[http.StatusTooManyRequests] + codes[http.StatusServiceUnavailable]); reached < want {
		t.Errorf("controller saw %d requests, but %d responses carried an admission verdict", reached, want)
	}
	s := a.life.Admit.Stats()
	total := s.Admitted + s.RejectedDeadline + s.RejectedQueueFull + s.RejectedOversize + s.Cancelled
	if total != reached {
		t.Errorf("outcomes sum to %d (%+v), want %d (requests that reached admission)", total, s, reached)
	}
	// Every 200 was admitted; cancelled clients may have been admitted
	// (aborted mid-run or completed before cancel) or counted cancelled.
	if s.Admitted < int64(codes[http.StatusOK]) {
		t.Errorf("admitted = %d < %d successful responses", s.Admitted, codes[http.StatusOK])
	}
	if clientCancelled == 0 {
		t.Log("no client observed a cancellation this round (timing-dependent)")
	}
	assertDrained(t, a, srv, baseGoroutines)
}

// TestRetryAfterVariesWithLoad is the regression test for the static
// Retry-After herd bug: the server used to stamp every 429 with the full
// -queue-timeout, so every client rejected in one overload wave retried at
// the same instant and arrived as a synchronized herd. The hint must instead
// track admission state — two 429s written under different congestion must
// carry different values.
func TestRetryAfterVariesWithLoad(t *testing.T) {
	const budget = 1 << 20
	fc := clock.NewFake()
	a := newAPI(serverConfig{
		sloP99:         defaultSLOP99,
		memBudgetBytes: budget,
		queueDepth:     4,
		queueTimeout:   10 * time.Second,
		clk:            fc,
	})

	// Fill the budget so every further request queues (wait 0 recorded).
	g, err := a.life.Admit.Admit(context.Background(), budget)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}

	// timeOut queues one request and expires it: the waiter sits its full
	// queue timeout, records that wait, and returns ErrDeadline.
	timeOut := func() error {
		t.Helper()
		errc := make(chan error, 1)
		go func() {
			_, err := a.life.Admit.Admit(context.Background(), budget)
			errc <- err
		}()
		fc.BlockUntil(1) // the waiter's deadline timer is armed
		fc.Advance(10 * time.Second)
		return <-errc
	}

	derr := timeOut()
	if !isAdmissionDeadline(derr) {
		t.Fatalf("queued request returned %v, want ErrDeadline", derr)
	}
	// write429 renders a deadline rejection the way the run lifecycle hands
	// it to the handler: carrying the controller's hint at rejection time.
	write429 := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		a.writeRunOutcome(rec, &workloadRequest{}, lifecycle.Outcome{
			Kind: lifecycle.RejectedDeadline, Err: derr, RetryAfter: a.life.Admit.RetryHint(),
		})
		return rec
	}
	rec1 := write429()
	first := rec1.Header().Get("Retry-After")

	// More deadline expiries shift the recent-wait median up, and a parked
	// waiter raises queue occupancy: the next 429 must hint differently.
	for i := 0; i < 2; i++ {
		if err := timeOut(); !isAdmissionDeadline(err) {
			t.Fatalf("expiry %d returned %v, want ErrDeadline", i, err)
		}
	}
	parkCtx, cancelPark := context.WithCancel(context.Background())
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		_, _ = a.life.Admit.Admit(parkCtx, budget)
	}()
	fc.BlockUntil(1)

	rec2 := write429()
	second := rec2.Header().Get("Retry-After")

	if rec1.Code != http.StatusTooManyRequests || rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("codes = %d, %d, want 429 for both", rec1.Code, rec2.Code)
	}
	if first == "" || second == "" {
		t.Fatalf("Retry-After = %q then %q, want both set", first, second)
	}
	if first == second {
		t.Errorf("Retry-After = %q under light load and %q under heavy load: a constant hint re-synchronizes the retry herd", first, second)
	}

	cancelPark()
	<-parked
	g.Release()
}

// isAdmissionDeadline reports whether err is the admission queue-deadline
// sentinel (the condition the server maps to 429).
func isAdmissionDeadline(err error) bool {
	return errors.Is(err, admission.ErrDeadline)
}

// TestRunIDRoundTrip runs twice and fetches each run's trace and time series
// back by its returned ID; an unknown ID 404s and lists what is retained.
func TestRunIDRoundTrip(t *testing.T) {
	h := newHandler(nil)
	var ids []string
	for i := 0; i < 2; i++ {
		code, body := doJSON(t, h, "POST", "/run", runBody(40, 2))
		if code != http.StatusOK {
			t.Fatalf("run %d = %d %v", i, code, body)
		}
		id, ok := body["run_id"].(string)
		if !ok || id == "" {
			t.Fatalf("run %d response lacks run_id: %v", i, body)
		}
		ids = append(ids, id)
	}
	if ids[0] == ids[1] {
		t.Fatalf("both runs got id %s", ids[0])
	}
	for _, id := range ids {
		if rec := get(t, h, "/trace/chrome?run="+id); rec.Code != http.StatusOK {
			t.Errorf("trace for %s = %d", id, rec.Code)
		}
		if rec := get(t, h, "/timeseries?run="+id); rec.Code != http.StatusOK {
			t.Errorf("timeseries for %s = %d", id, rec.Code)
		}
	}
	if rec := get(t, h, "/trace/chrome?run=run-999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown run trace = %d, want 404", rec.Code)
	}
}
