package main

import (
	"bytes"
	"strings"
	"testing"
)

// fixture builds a report whose runs of one workload carry the given
// runs_per_s values; every other metric is held constant.
func fixture(workload string, runsPerS ...float64) *Report {
	r := &Report{}
	for _, v := range runsPerS {
		r.Runs = append(r.Runs, Run{Workload: workload, Attempted: 100, Correct: true, EndToEnd: Metrics{
			"runs_per_s":     {Value: v, Unit: "1/s"},
			"latency_p50_ms": {Value: 100, Unit: "ms"},
		}})
	}
	return r
}

func TestJudgeVerdicts(t *testing.T) {
	higher := MetricDef{Name: "runs_per_s", Better: "higher", Bound: 0.10}
	lower := MetricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		d    MetricDef
		a, b []float64
		want Verdict
	}{
		{"same", higher, steady, steady, ok},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79, 80, 82}, regressed},
		{"throughput up 20%", higher, steady, []float64{120, 121, 119, 120, 122}, ok},
		{"latency up 20%", lower, steady, []float64{120, 121, 119, 120, 122}, regressed},
		{"latency down 20%", lower, steady, []float64{80, 81, 79, 80, 82}, ok},
		{"worse but within bound", lower, steady, []float64{108, 109, 107, 108, 110}, ok},
		{"too noisy to tell", higher, steady, []float64{60, 100, 140, 80, 120}, unresolved},
		{"single runs have no spread", higher, []float64{100}, []float64{85}, regressed},
	} {
		if _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsRegressionsAndFailures(t *testing.T) {
	a := fixture("warm-repeat", 10, 10.1, 9.9, 10)
	var out bytes.Buffer
	if Compare(&out, a, fixture("warm-repeat", 10, 10.1, 9.9, 10)) {
		t.Errorf("identical reports regressed:\n%s", out.String())
	}
	out.Reset()
	if !Compare(&out, a, fixture("warm-repeat", 6, 6.1, 5.9, 6)) {
		t.Errorf("a 40%% throughput drop passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "runs_per_s") {
		t.Errorf("the regressed metric is not named:\n%s", out.String())
	}
	failing := fixture("warm-repeat", 10, 10.1, 9.9, 10)
	failing.Runs[0].Failed = 1
	if !Compare(&out, a, failing) {
		t.Error("a new failed request must count as a regression")
	}
}
