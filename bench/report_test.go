package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// BENCHMARK.json repeats the tables of this package for the driver; the
// two must not drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []MetricDef `json:"end_to_end"`
		PerLayer []MetricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", spec.RunSeconds, RunSeconds)
	}
	if !reflect.DeepEqual(spec.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, PerLayer)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s / %s", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

func TestDriverLineCarriesExactlyTheContractKeys(t *testing.T) {
	run := &Run{Attempted: 3, Correct: true, EndToEnd: Metrics{}, PerLayer: Metrics{}}
	run.EndToEnd.set(EndToEnd, "setup_s", 0.5)
	run.PerLayer.set(PerLayer, "ml.train_ms", 2)
	for _, traced := range []bool{false, true} {
		run.Traced = traced
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(driverLine(run)), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Errorf("driver line keys: %v", got)
		}
		want := "setup_s"
		if traced {
			want = "ml.train_ms"
		}
		if !strings.Contains(string(got["metrics"]), want) {
			t.Errorf("traced=%v: metrics %s lack %s", traced, got["metrics"], want)
		}
	}
}
