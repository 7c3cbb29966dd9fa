package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func incN(c *Counter, n int) {
	for i := 0; i < n; i++ {
		c.Inc()
	}
}

// TestPrometheusGolden locks down the text exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	incN(r.Counter("vista_tasks_total", "Tasks executed."), 3)
	r.Counter("vista_http_requests_total", "HTTP requests served.",
		Label{"path", "/run"}, Label{"code", "200"}).Inc()
	incN(r.Counter("vista_http_requests_total", "HTTP requests served.",
		Label{"path", "/run"}, Label{"code", "400"}), 2)
	g := r.Gauge("vista_pool_used_bytes", "Bytes in use.", Label{"pool", "storage"}, Label{"node", "0"})
	g.Set(1024)
	r.GaugeFunc("vista_pool_capacity_bytes", "Pool capacity.",
		func() float64 { return 4096 }, Label{"pool", "storage"}, Label{"node", "0"})
	h := r.Histogram("vista_request_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP vista_http_requests_total HTTP requests served.
# TYPE vista_http_requests_total counter
vista_http_requests_total{code="200",path="/run"} 1
vista_http_requests_total{code="400",path="/run"} 2
# HELP vista_pool_capacity_bytes Pool capacity.
# TYPE vista_pool_capacity_bytes gauge
vista_pool_capacity_bytes{node="0",pool="storage"} 4096
# HELP vista_pool_used_bytes Bytes in use.
# TYPE vista_pool_used_bytes gauge
vista_pool_used_bytes{node="0",pool="storage"} 1024
# HELP vista_request_seconds Request latency.
# TYPE vista_request_seconds histogram
vista_request_seconds_bucket{le="0.1"} 1
vista_request_seconds_bucket{le="1"} 2
vista_request_seconds_bucket{le="+Inf"} 3
vista_request_seconds_sum 5.55
vista_request_seconds_count 3
# HELP vista_tasks_total Tasks executed.
# TYPE vista_tasks_total counter
vista_tasks_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistrySameHandle verifies that re-registering returns the identical
// instance, so independent call sites accumulate into one series.
func TestRegistrySameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h", Label{"k", "v"})
	b := r.Counter("c_total", "h", Label{"k", "v"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	incN(a, 2)
	b.Inc()
	if a.Value() != 3 {
		t.Errorf("counter = %d, want 3", a.Value())
	}
	ga := r.Gauge("g", "h")
	gb := r.Gauge("g", "h")
	if ga != gb {
		t.Error("same name returned distinct gauges")
	}
	ha := r.Histogram("h", "h", DefBuckets)
	hb := r.Histogram("h", "h", DefBuckets)
	if ha != hb {
		t.Error("same name returned distinct histograms")
	}
}

// TestRegistryFuncReplace verifies func-backed series are replaceable — the
// contract that lets each fresh per-run engine take over the gauges.
func TestRegistryFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "h", func() float64 { return 1 })
	r.GaugeFunc("g", "h", func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(b.String(), "g 2\n") {
		t.Errorf("replacement callback not used:\n%s", b.String())
	}
	if strings.Count(b.String(), "\ng ") != 0 && strings.Contains(b.String(), "g 1") {
		t.Errorf("stale callback still rendered:\n%s", b.String())
	}
}

// TestRegistryTypeConflict verifies that reusing a name across metric types
// panics instead of corrupting the exposition.
func TestRegistryTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Error("no panic on counter/gauge name conflict")
		}
	}()
	r.Gauge("m", "h")
}

// TestHistogramBuckets verifies bucket assignment edges.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "h", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="2"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 8`,
		`lat_count 5`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

// TestRegistryConcurrent hammers one registry from many writers while
// scraping it, for the race detector.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var writers, scraper sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := r.Counter("work_total", "h")
			g := r.Gauge("level", "h", Label{"worker", string(rune('a' + w))})
			h := r.Histogram("lat", "h", DefBuckets)
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) / 100)
				r.GaugeFunc("fn", "h", func() float64 { return float64(i) })
			}
		}(w)
	}
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	scraper.Wait()
	if got := r.Counter("work_total", "h").Value(); got != 4*500 {
		t.Errorf("work_total = %d, want %d", got, 4*500)
	}
}

// TestFuncMetricPanicGuard: a func-backed series whose callback panics (e.g.
// a gauge closure reading an engine torn down mid-scrape) must render NaN and
// leave the rest of the scrape intact — and must not poison Samples either.
func TestFuncMetricPanicGuard(t *testing.T) {
	r := NewRegistry()
	r.Gauge("healthy_gauge", "h").Set(7)
	r.GaugeFunc("broken_gauge", "h", func() float64 { panic("engine closed") })
	r.CounterFunc("broken_total", "h", func() float64 { panic("engine closed") })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{"broken_gauge NaN", "broken_total NaN", "healthy_gauge 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}

	var sawBroken bool
	for _, s := range r.Samples(nil) {
		switch s.Name {
		case "broken_gauge":
			sawBroken = true
			if !math.IsNaN(s.Value) {
				t.Errorf("broken_gauge sample = %v, want NaN", s.Value)
			}
		case "healthy_gauge":
			if s.Value != 7 {
				t.Errorf("healthy_gauge sample = %v, want 7", s.Value)
			}
		}
	}
	if !sawBroken {
		t.Error("Samples skipped the broken series")
	}
}

func TestSamples(t *testing.T) {
	r := NewRegistry()
	incN(r.Counter("vista_engine_tasks_total", "h"), 3)
	r.Gauge("vista_pool_used_bytes", "h",
		Label{Key: "node", Value: "0"}, Label{Key: "pool", Value: "storage"}).Set(4096)
	h := r.Histogram("vista_http_request_seconds", "h", DefBuckets)
	h.Observe(0.2)
	h.Observe(0.4)

	got := make(map[string]float64)
	for _, s := range r.Samples(nil) {
		got[s.Key()] = s.Value
	}
	want := map[string]float64{
		"vista_engine_tasks_total":                       3,
		`vista_pool_used_bytes{node="0",pool="storage"}`: 4096,
		"vista_http_request_seconds_sum":                 0.6000000000000001,
		"vista_http_request_seconds_count":               2,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Samples[%s] = %v, want %v", k, got[k], v)
		}
	}

	// Filtered read: only the pool family.
	filtered := r.Samples(func(name string) bool { return name == "vista_pool_used_bytes" })
	if len(filtered) != 1 || filtered[0].Value != 4096 {
		t.Errorf("filtered Samples = %v", filtered)
	}
}

func TestFindHistogram(t *testing.T) {
	r := NewRegistry()
	if r.FindHistogram("vista_http_request_seconds") != nil {
		t.Error("found a histogram in an empty registry")
	}
	lbl := Label{Key: "path", Value: "/run"}
	h := r.Histogram("vista_http_request_seconds", "h", DefBuckets, lbl)
	if r.FindHistogram("vista_http_request_seconds", lbl) != h {
		t.Error("FindHistogram did not return the registered instance")
	}
	if r.FindHistogram("vista_http_request_seconds", Label{Key: "path", Value: "/other"}) != nil {
		t.Error("FindHistogram minted or found a never-registered label set")
	}
	// Probing must not create series: the exposition stays label-complete.
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if strings.Contains(b.String(), "/other") {
		t.Errorf("probe minted a series:\n%s", b.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})

	if _, ok := h.Quantile(0.99); ok {
		t.Error("empty histogram reported a quantile")
	}

	// 100 observations uniformly in (0,1]: everything lands in the first
	// bucket, so p50 interpolates to ~0.5 within [0,1].
	for i := 0; i < 100; i++ {
		h.Observe(0.005 * float64(i+1))
	}
	if v, ok := h.Quantile(0.5); !ok || v != 0.5 {
		t.Errorf("p50 = %v,%v, want 0.5", v, ok)
	}
	if v, ok := h.Quantile(1); !ok || v != 1 {
		t.Errorf("p100 = %v,%v, want 1 (upper bound of the occupied bucket)", v, ok)
	}

	// An observation beyond the last finite bound saturates there.
	h2 := newHistogram([]float64{1, 2, 4})
	h2.Observe(100)
	if v, ok := h2.Quantile(0.99); !ok || v != 4 {
		t.Errorf("overflow p99 = %v,%v, want saturation at 4", v, ok)
	}

	// Invalid q.
	if _, ok := h2.Quantile(0); ok {
		t.Error("q=0 accepted")
	}
	if _, ok := h2.Quantile(1.5); ok {
		t.Error("q>1 accepted")
	}
}

// TestHistogramQuantileEdgeCases pins the interpolation paths that a
// load-test report leans on: ranks inside the first bucket (interpolated
// from zero, not the bucket bound), empty interior buckets, +Inf overflow
// saturating at the last finite bound, and q=1.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []float64
		samples []float64
		q       float64
		want    float64
	}{
		{"rank in the first bucket", []float64{1, 2, 4}, []float64{0.5, 0.5, 0.5, 0.5}, 0.5, 0.5},
		{"first bucket interpolates from zero, not its bound", []float64{10, 20}, []float64{1, 1, 1, 1}, 0.25, 2.5},
		{"empty interior buckets are skipped", []float64{1, 2, 4}, []float64{0.5, 3}, 1, 4},
		{"rank below an empty interior bucket", []float64{1, 2, 4}, []float64{0.5, 3}, 0.5, 1},
		{"overflow saturates at the last finite bound", []float64{1, 2, 4}, []float64{100}, 0.99, 4},
		{"q=1 reports the occupied bucket's upper bound", []float64{1, 2, 4}, []float64{2.5, 3, 3.5}, 1, 4},
		{"q=1 saturates when everything overflowed", []float64{1, 2}, []float64{5, 6, 7}, 1, 2},
		{"boundary observation counts into its own bucket", []float64{1, 2, 4}, []float64{2, 2}, 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHistogram(c.bounds)
			for _, s := range c.samples {
				h.Observe(s)
			}
			v, ok := h.Quantile(c.q)
			if !ok {
				t.Fatalf("Quantile(%v) not ok with %d observations", c.q, len(c.samples))
			}
			if math.Abs(v-c.want) > 1e-12 {
				t.Errorf("Quantile(%v) = %v, want %v", c.q, v, c.want)
			}
		})
	}
}
