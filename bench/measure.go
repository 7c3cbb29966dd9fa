package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnn"
)

// runResponse is the part of a /run response the benchmark checks.
type runResponse struct {
	Crashed bool `json:"crashed"`
	Layers  []struct {
		Layer      string  `json:"layer"`
		FeatureDim int     `json:"feature_dim"`
		TrainF1    float64 `json:"train_f1"`
		TestF1     float64 `json:"test_f1"`
	} `json:"layers"`
	Cache struct {
		FromCache int `json:"stages_from_cache"`
		Executed  int `json:"stages_executed"`
		Shared    int `json:"stages_shared"`
	} `json:"cache"`
	Share struct {
		Role      string `json:"role"`
		GroupSize int    `json:"group_size"`
	} `json:"share"`
}

// checker validates responses against the roster, the workload's cache
// expectation and each other. It is shared by the clients of a run.
type checker struct {
	w    Workload
	want []cnn.LayerStat // the roster's top w.Layers feature layers

	mu sync.Mutex
	// f1 remembers the first response's F1s per fingerprint: later
	// responses must agree whether computed, cached or shared.
	f1 map[int64][]float64
}

func newChecker(w Workload) (*checker, error) {
	model, err := cnn.ByName(w.Model)
	if err != nil {
		return nil, err
	}
	stats, err := cnn.ComputeStats(model)
	if err != nil {
		return nil, err
	}
	want, err := stats.TopLayerStats(w.Layers)
	if err != nil {
		return nil, err
	}
	return &checker{w: w, want: want, f1: make(map[int64][]float64)}, nil
}

// check validates one response. measured responses must also meet the
// workload's cache expectation; prewarm responses are computed cold whatever
// the workload.
func (c *checker) check(req Request, status int, body []byte, measured bool) (*runResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("seed %d: status %d: %.120s", req.Seed, status, body)
	}
	var r runResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("seed %d: bad body: %v", req.Seed, err)
	}
	if r.Crashed {
		return nil, fmt.Errorf("seed %d: crashed", req.Seed)
	}
	if len(r.Layers) != len(c.want) {
		return nil, fmt.Errorf("seed %d: %d layers, want %d", req.Seed, len(r.Layers), len(c.want))
	}
	f1 := make([]float64, 0, 2*len(r.Layers))
	for i, l := range r.Layers {
		if l.Layer != c.want[i].Name || l.FeatureDim != c.want[i].FeatureDim {
			return nil, fmt.Errorf("seed %d: layer %d is %s/%d, roster says %s/%d", req.Seed, i,
				l.Layer, l.FeatureDim, c.want[i].Name, c.want[i].FeatureDim)
		}
		for _, v := range []float64{l.TrainF1, l.TestF1} {
			if !(v >= 0 && v <= 1) {
				return nil, fmt.Errorf("seed %d: layer %s F1 %v outside [0,1]", req.Seed, l.Layer, v)
			}
			f1 = append(f1, v)
		}
	}
	c.mu.Lock()
	first, seen := c.f1[req.Seed]
	if !seen {
		c.f1[req.Seed] = f1
	}
	c.mu.Unlock()
	for i := range first {
		if math.Abs(first[i]-f1[i]) > 1e-6 {
			return nil, fmt.Errorf("seed %d: F1 %v differs from the first response's %v", req.Seed, f1, first)
		}
	}
	if !measured {
		return &r, nil
	}
	n, k := c.w.Layers, r.Cache
	var ok bool
	switch c.w.Expect {
	case expectExecuted:
		ok = k.Executed == n
	case expectCached:
		ok = k.FromCache == n && k.Executed == 0
	case expectMixed:
		ok = k.Executed+k.FromCache == n
	case expectPairs:
		// A follower attaches everything from its leader; a leader or a
		// solo run computes or reads the store.
		ok = k.Executed+k.FromCache+k.Shared == n && (r.Share.Role != "follower" || k.Shared == n)
	}
	if !ok {
		return nil, fmt.Errorf("seed %d: cache report %+v (role %q) breaks the workload's expectation", req.Seed, k, r.Share.Role)
	}
	return &r, nil
}

// sample is one completed request of a drive; drive returns them in
// sequence order.
type sample struct {
	resp    *runResponse // nil when the check failed
	err     error
	latency time.Duration
	end     time.Time
}

// never is the stop condition of a drive that sends its whole sequence.
func never() bool { return false }

// drive replays reqs against s with closed-loop clients until the sequence
// ends or stop reports true; requests in flight finish. Clients pull the
// next request from a shared counter; a lockstep workload instead sends
// requests 2r and 2r+1 together and waits for both, whatever clients is.
func (e *Env) drive(s *Server, c *checker, reqs []Request, measured bool, clients int, stop func() bool) []sample {
	out := make([]sample, len(reqs))
	send := func(i int) {
		status, body, lat, err := e.Post(s, reqs[i])
		sm := sample{latency: lat, end: time.Now(), err: err}
		if err == nil {
			sm.resp, sm.err = c.check(reqs[i], status, body, measured)
		}
		out[i] = sm
	}
	var sent atomic.Int64
	var wg sync.WaitGroup
	if c.w.Lockstep {
		for r := 0; 2*r+1 < len(reqs) && !stop(); r++ {
			for k := 0; k < Clients; k++ {
				wg.Add(1)
				go func(i int) { defer wg.Done(); send(i) }(2*r + k)
			}
			wg.Wait()
			sent.Store(int64(2*r + 2))
		}
		return out[:sent.Load()]
	}
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				i := int(sent.Add(1)) - 1
				if i >= len(reqs) {
					sent.Add(-1)
					return
				}
				send(i)
			}
		}()
	}
	wg.Wait()
	return out[:sent.Load()]
}

// coalesced reports how many lockstep pairs of samples formed a leader and
// a follower, out of how many pairs were sent.
func coalesced(samples []sample) (formed, pairs int) {
	for i := 0; i+1 < len(samples); i += 2 {
		pairs++
		a, b := samples[i].resp, samples[i+1].resp
		if a == nil || b == nil {
			continue
		}
		if (a.Share.Role == "leader" && b.Share.Role == "follower") ||
			(a.Share.Role == "follower" && b.Share.Role == "leader") {
			formed++
		}
	}
	return formed, pairs
}

// setup boots a server for w and sends the prewarm requests through the
// same clients the measured loop uses. It returns the time from exec to the
// last prewarm response.
func (e *Env) setup(ctx context.Context, w Workload, c *checker, prewarm []Request) (*Server, float64, error) {
	start := time.Now()
	s, err := e.Boot(ctx, w)
	if err != nil {
		return nil, 0, err
	}
	for _, sm := range e.drive(s, c, prewarm, false, Clients, never) {
		if sm.err != nil {
			s.Stop()
			return nil, 0, fmt.Errorf("prewarm: %w", sm.err)
		}
	}
	return s, time.Since(start).Seconds(), nil
}

// SetupReps is how many times a measured run sets up a server; setup_s is
// the median, and the last server carries the measured loop. A single
// set-up of the cheap workloads varies by a third from one to the next.
const SetupReps = 5

// maxRequests bounds the generated sequence; no workload comes near it in
// 60 seconds.
const maxRequests = 8192

// Measure runs w's measured (untraced) run: SetupReps set-ups, Warmup
// unmeasured requests, then the closed loop for seconds.
func (e *Env) Measure(ctx context.Context, w Workload, seed int64, seconds float64) (*Run, error) {
	run := &Run{Workload: w.Name, Seed: seed, EndToEnd: Metrics{}, PerLayer: Metrics{}, Info: Metrics{}}
	c, err := newChecker(w)
	if err != nil {
		return nil, err
	}
	prewarm, seq := Sequence(w, seed, maxRequests)
	var srv *Server
	var setups []float64
	for i := 0; i < SetupReps; i++ {
		if srv != nil {
			srv.Stop()
		}
		var took float64
		if srv, took, err = e.setup(ctx, w, c, prewarm); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer srv.Stop()

	for _, sm := range e.drive(srv, c, seq[:Warmup], true, Clients, never) {
		if sm.err != nil {
			return nil, fmt.Errorf("warm-up: %w", sm.err)
		}
	}
	before, err := e.Scrape(srv)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	samples := e.drive(srv, c, seq[Warmup:], true, Clients, func() bool {
		return time.Since(start) >= limit || ctx.Err() != nil
	})
	after, err := e.Scrape(srv)
	if err != nil {
		return nil, err
	}

	var lat []float64
	last := start
	for _, sm := range samples {
		run.Attempted++
		if sm.err != nil {
			run.fail("%v", sm.err)
			continue
		}
		lat = append(lat, float64(sm.latency)/float64(time.Millisecond))
		if sm.end.After(last) {
			last = sm.end
		}
	}
	run.Samples = len(lat)
	run.TailSupported = supportedTail(len(lat))
	run.EndToEnd.set(EndToEnd, "runs_per_s", float64(len(lat))/last.Sub(start).Seconds())
	run.EndToEnd.set(EndToEnd, "latency_p50_ms", percentile(lat, 50))
	run.EndToEnd.set(EndToEnd, "latency_p90_ms", percentile(lat, 90))
	run.EndToEnd.set(EndToEnd, "setup_s", median(setups))
	run.Info["build_s"] = Metric{Value: e.BuildS, Unit: "s"}

	after.layerMetrics(before, run.PerLayer)
	run.PerLayer.set(PerLayer, "server.rss_peak_mib", srv.RSSPeakMiB())
	if w.Lockstep {
		formed, pairs := coalesced(samples)
		run.PerLayer.set(PerLayer, "share.coalesced_share", float64(formed)/float64(max(pairs, 1)))
	}
	checkRegime(run, w)
	checkServing(run, w)
	run.Correct = run.Failed == 0 && run.Attempted > 0
	return run, nil
}

// checkRegime holds a measured run's store counters against what the
// workload is built to provoke; a workload that stops doing so no longer
// measures what its name says.
func checkRegime(run *Run, w Workload) {
	hit := run.PerLayer["featurestore.hit_ratio"].Value
	switch w.Expect {
	case expectExecuted:
		if hit != 0 {
			run.fail("store hit_ratio %v on a workload of distinct fingerprints", hit)
		}
	case expectMixed:
		if !(hit > 0 && hit < 1) || run.PerLayer["featurestore.evictions"].Value == 0 {
			run.fail("churn needs 0 < hit_ratio < 1 and evictions > 0, got %v and %v",
				hit, run.PerLayer["featurestore.evictions"].Value)
		}
	}
}

// checkServing holds what must be true of any replay, however short: pairs
// coalesce and admission turns nothing away.
func checkServing(run *Run, w Workload) {
	if v := run.PerLayer["share.coalesced_share"].Value; w.Lockstep && v < 0.95 {
		run.fail("only %.2f of the pairs coalesced into leader + follower", v)
	}
	if v := run.PerLayer["admission.rejected"].Value; v != 0 {
		run.fail("%v requests rejected by admission at %d clients", v, Clients)
	}
}
