package sim

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

var update = flag.Bool("update", false, "rewrite testdata/vista_decisions.txt from the current decisions")

// goldenSpecs are the workloads whose Vista decisions
// testdata/vista_decisions.txt holds: the paper roster on Foods and Amazon
// under every plan, the memory-only and GPU systems, an MLP downstream, a
// fully-cached run, and the tiny roster at vista-server's /run shape (2
// nodes × 4 cores × 32 GB, real float32 image rows).
func goldenSpecs(t *testing.T) []WorkloadSpec {
	var specs []WorkloadSpec
	for _, ds := range []DatasetSpec{FoodsSpec(), AmazonSpec()} {
		for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
			for _, p := range []struct {
				kind      plan.Kind
				placement plan.JoinPlacement
			}{{plan.Staged, plan.AfterJoin}, {plan.Lazy, plan.BeforeJoin}, {plan.Eager, plan.AfterJoin}} {
				specs = append(specs, WorkloadSpec{ModelName: model, Dataset: ds,
					PlanKind: p.kind, Placement: p.placement})
			}
			specs = append(specs,
				WorkloadSpec{ModelName: model, Dataset: ds, MemoryOnly: true},
				WorkloadSpec{ModelName: model, Dataset: ds, PlanKind: plan.Eager, MemoryOnly: true},
				WorkloadSpec{ModelName: model, Dataset: ds, Nodes: 1, MemGPU: memory.GB(12)},
				WorkloadSpec{ModelName: model, Dataset: ds,
					Downstream: Downstream{MLP: true, Hidden: []int{1024, 1024, 1024}}},
				WorkloadSpec{ModelName: model, Dataset: ds,
					Stored: func(int, bool) bool { return true }},
			)
		}
	}
	for _, r := range []struct {
		model        string
		rows, layers int
	}{
		{"tiny-alexnet", 48, 3}, {"tiny-vgg16", 32, 3}, {"tiny-resnet50", 100, 5},
		{"tiny-resnet50", 50, 5}, {"tiny-densenet", 500, 0}, {"tiny-alexnet", 20000, 0},
	} {
		m, err := cnn.ByName(r.model)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cnn.ComputeStats(m)
		if err != nil {
			t.Fatal(err)
		}
		ds := DatasetSpec{Name: "foods", Rows: r.rows, StructDim: data.Foods().StructDim,
			ImageRowBytes: st.InputBytes}
		ws := WorkloadSpec{ModelName: r.model, NumLayers: r.layers, Dataset: ds,
			Nodes: 2, CPUSys: 4, MemSys: memory.GB(32)}
		cached := ws
		cached.Stored = func(int, bool) bool { return true }
		specs = append(specs, ws, cached)
	}
	return specs
}

// goldenLine renders ws's Vista decision and the verdict of its simulated
// run: cpu, np, the five apportioned regions in bytes, join, persistence,
// and the crash (or "none"), or "infeasible" when nothing fits.
func goldenLine(t *testing.T, ws WorkloadSpec) string {
	name := fmt.Sprintf("%s/%s rows=%d L=%d %s/%s nodes=%d mem-only=%t gpu=%d mlp=%t cached=%t",
		ws.ModelName, ws.Dataset.Name, ws.Dataset.Rows, ws.NumLayers, ws.PlanKind, ws.Placement,
		ws.Nodes, ws.MemoryOnly, ws.MemGPU, ws.Downstream.MLP, ws.Stored != nil)
	wi, err := Vista(ws)
	if errors.Is(err, optimizer.ErrNoFeasible) {
		return name + ": infeasible"
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	a := wi.Config.Apportion
	crash := "none"
	if wi.Result.Crash != nil {
		crash = wi.Result.Crash.Error()
	}
	return fmt.Sprintf("%s: cpu=%d np=%d os=%d dl=%d user=%d core=%d storage=%d join=%s pers=%s crash=%s",
		name, wi.Config.CPU, wi.Config.NP, a.OSReserved, a.DLExecution, a.User, a.Core, a.Storage,
		wi.Config.Join, wi.Config.Pers, crash)
}

// TestVistaDecisionGolden holds every golden spec's decision and crash
// verdict byte for byte, so a change to the memory model shows which cell it
// moved. Regenerate with go test ./internal/sim -run TestVistaDecisionGolden
// -update.
func TestVistaDecisionGolden(t *testing.T) {
	var got bytes.Buffer
	for _, ws := range goldenSpecs(t) {
		fmt.Fprintln(&got, goldenLine(t, ws))
	}
	path := filepath.Join("testdata", "vista_decisions.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		g, w := "<end>", "<end>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d of %s:\n got %s\nwant %s", i+1, path, g, w)
		}
	}
}
