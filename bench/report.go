package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// MetricDef declares one metric; BENCHMARK.json repeats these tables and a
// test keeps the two in step.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before it counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// EndToEnd is what a user of the server sees. Every bound is the largest
// the contract allows: the box the baseline comes from drifts by about 5% at
// the scale of one run and by 20-30% over an hour (a bare ALU loop shows
// it), which puts the quartile spread of ten runs at 3-12% on a quiet host
// and 6-26% on a busy one (results/SPREADS.md). A tighter bound would gate
// on that drift.
var EndToEnd = []MetricDef{
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// PerLayer is one entry per measurement of a single module of the repo.
var PerLayer = []MetricDef{
	{Name: "data.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "core.price_us", Unit: "us", Better: "lower"},
	{Name: "core.run_self_ms", Unit: "ms", Better: "lower"},
	{Name: "dl.infer_ms_per_row", Unit: "ms", Better: "lower"},
	{Name: "dl.session_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.conv_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.peak_gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.copy_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "cnn.flops_per_row", Unit: "count", Better: "lower"},
	{Name: "featurestore.get_ms", Unit: "ms", Better: "lower"},
	{Name: "featurestore.put_ms", Unit: "ms", Better: "lower"},
	{Name: "featurestore.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "featurestore.puts", Unit: "count", Better: "lower"},
	{Name: "featurestore.evictions", Unit: "count", Better: "lower"},
	{Name: "featurestore.evicted_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dataflow.ingest_join_ms", Unit: "ms", Better: "lower"},
	{Name: "dataflow.codec_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ml.train_ms", Unit: "ms", Better: "lower"},
	{Name: "share.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "share.window_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "admission.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "admission.admitted", Unit: "count", Better: "higher"},
	{Name: "admission.queued", Unit: "count", Better: "lower"},
	{Name: "admission.rejected", Unit: "count", Better: "lower"},
	{Name: "calib.record_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rss_peak_mib", Unit: "MiB", Better: "lower"},
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// set stores value under a declared metric, taking the unit from defs.
func (m Metrics) set(defs []MetricDef, name string, value float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = Metric{Value: value, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// Run is the outcome of one run of one workload: the measured run fills
// EndToEnd (and the counters the live server exposes), the traced run fills
// PerLayer and Shares.
type Run struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is how many latencies the percentiles rest on; TailSupported
	// is the highest percentile with ten samples beyond it at that count.
	Samples       int     `json:"samples"`
	TailSupported float64 `json:"tail_supported"`
	Correct       bool    `json:"correct"`
	// Failures holds the first few violation messages.
	Failures []string `json:"failures,omitempty"`
	EndToEnd Metrics  `json:"end_to_end,omitempty"`
	PerLayer Metrics  `json:"per_layer,omitempty"`
	// Shares is each layer's self time as a share of the in-process request
	// time, summed over the traced requests.
	Shares map[string]float64 `json:"shares,omitempty"`
	// Info carries ungated extras: build_s, the cold two-point split.
	Info Metrics `json:"info,omitempty"`
}

// fail counts one violation against the run.
func (r *Run) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Report is what -out writes: every run of one invocation under one
// machine header.
type Report struct {
	Machine Machine `json:"machine"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Reps    int     `json:"reps"`
	Runs    []Run   `json:"runs"`
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printRun prints every metric of a run by name and unit.
func printRun(w io.Writer, r *Run) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v attempted=%d failed=%d samples=%d tail_supported=p%.0f correct=%v\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Samples, r.TailSupported, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	printMetrics := func(defs []MetricDef, m Metrics) {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "   %-28s %14.4f %-8s (%s is better)\n", d.Name, v.Value, v.Unit, d.Better)
			}
		}
	}
	printMetrics(EndToEnd, r.EndToEnd)
	printMetrics(PerLayer, r.PerLayer)
	for _, name := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "   %-28s %14.4f %-8s (info)\n", name, r.Info[name].Value, r.Info[name].Unit)
	}
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "   self-time shares of the in-process request:\n")
		for _, name := range sortedKeys(r.Shares) {
			fmt.Fprintf(w, "     %-26s %6.2f %%\n", name, 100*r.Shares[name])
		}
	}
}

// driverLine is the contract's last line of standard output.
func driverLine(r *Run) string {
	m := r.EndToEnd
	if r.Traced {
		m = r.PerLayer
	}
	blob, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(blob)
}
