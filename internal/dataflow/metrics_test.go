package dataflow

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestRegisterMetricsExposition checks the engine's series names, labels,
// and values in a rendered scrape.
func TestRegisterMetricsExposition(t *testing.T) {
	e := newTestEngine(t, testConfig())
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)

	tb, err := e.CreateTable("t", makeRows(100, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Drop()
	out2, err := e.MapPartitions("m", tb, func(_ *TaskContext, in []Row) ([]Row, error) {
		return in, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out2.Drop()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE vista_engine_tasks_total counter",
		"# TYPE vista_pool_used_bytes gauge",
		`vista_pool_used_bytes{node="0",pool="storage"}`,
		`vista_pool_used_bytes{node="1",pool="dl"}`,
		`vista_pool_capacity_bytes{node="driver",pool="driver"} 2.68435456e+08`,
		"vista_engine_rows_processed_total 100",
		"vista_engine_spills_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// The storage gauges read the live cache: with a table cached, both
	// nodes report 0 only if nothing was charged at all.
	if storageUsed(e) == 0 {
		t.Fatal("expected cached bytes behind the storage gauges")
	}
}

// TestEngineMetricsConcurrentScrape hammers a registered engine with
// parallel tasks while scraping /metrics-style, for the race detector: the
// func-backed series read the engine's atomics and pools mid-run.
func TestEngineMetricsConcurrentScrape(t *testing.T) {
	e := newTestEngine(t, testConfig())
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)

	tb, err := e.CreateTable("t", makeRows(500, 20), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Drop()

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := reg.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				if !strings.Contains(b.String(), "vista_engine_tasks_total") {
					t.Error("scrape lost the engine series")
					return
				}
			}
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 5; i++ {
				out, err := e.MapPartitions("m", tb, func(tc *TaskContext, in []Row) ([]Row, error) {
					tc.AddFLOPs(int64(len(in)))
					return in, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				out.Drop()
			}
		}()
	}
	workers.Wait()
	close(stop)
	scraper.Wait()

	if got := e.Counters().TasksRun.Load(); got < 8 {
		t.Errorf("TasksRun = %d after concurrent maps", got)
	}
}
