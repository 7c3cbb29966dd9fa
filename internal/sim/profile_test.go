package sim

import (
	"os"
	"testing"

	"repro/internal/memory"
)

func TestProfilePresets(t *testing.T) {
	p := PaperCluster()
	if p.Nodes != 8 || p.CoresPerNode != 8 || p.MemPerNode != memory.GB(32) {
		t.Errorf("paper cluster = %d nodes × %d cores × %s",
			p.Nodes, p.CoresPerNode, memory.FormatBytes(p.MemPerNode))
	}
	if p.Kind != memory.SparkLike || p.GPU != nil {
		t.Error("paper cluster should be Spark-like without GPU")
	}
	ig := IgniteCluster()
	if ig.Kind != memory.IgniteLike {
		t.Error("ignite cluster kind wrong")
	}
	gpu := SingleNodeGPU()
	if gpu.Nodes != 1 || gpu.GPU == nil || gpu.GPU.MemBytes != memory.GB(12) {
		t.Errorf("gpu workstation = %+v", gpu)
	}
	fl := FlinkLike()
	if fl.ScanMBps >= p.ScanMBps || fl.PerTaskOverheadMs <= p.PerTaskOverheadMs {
		t.Error("flink profile should have higher overheads than spark")
	}
}

func TestWithNodes(t *testing.T) {
	p := PaperCluster().WithNodes(3)
	if p.Nodes != 3 {
		t.Errorf("WithNodes = %d", p.Nodes)
	}
	if PaperCluster().Nodes != 8 {
		t.Error("WithNodes mutated the preset")
	}
}

func TestParseProfile(t *testing.T) {
	p, err := parseProfile([]byte(`{
		"name": "my-cluster", "kind": "ignite",
		"nodes": 4, "cores_per_node": 16, "mem_per_node_gb": 64,
		"net_mbps": 1200, "gpu_mem_gb": 24, "gpu_gflops": 9000
	}`))
	if err != nil {
		t.Fatalf("parseProfile: %v", err)
	}
	if p.Name != "my-cluster" || p.Kind != memory.IgniteLike {
		t.Errorf("name/kind = %s/%v", p.Name, p.Kind)
	}
	if p.Nodes != 4 || p.CoresPerNode != 16 || p.MemPerNode != memory.GB(64) {
		t.Errorf("cluster dims wrong: %+v", p)
	}
	if p.NetMBps != 1200 {
		t.Errorf("net = %v", p.NetMBps)
	}
	// Unset fields default to the paper cluster's calibration.
	if p.ScanMBps != PaperCluster().ScanMBps {
		t.Errorf("scan = %v, want paper default", p.ScanMBps)
	}
	if p.GPU == nil || p.GPU.MemBytes != memory.GB(24) || p.GPU.GFLOPS != 9000 {
		t.Errorf("gpu = %+v", p.GPU)
	}

	if _, err := parseProfile([]byte(`{"kind":"flink"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := parseProfile([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestLoadProfile(t *testing.T) {
	path := t.TempDir() + "/prof.json"
	if err := writeFile(path, `{"name":"from-disk","base_gflops":50}`); err != nil {
		t.Fatal(err)
	}
	p, err := loadProfile(path)
	if err != nil {
		t.Fatalf("loadProfile: %v", err)
	}
	if p.Name != "from-disk" || p.BaseGFLOPS != 50 {
		t.Errorf("loaded profile = %+v", p)
	}
	if _, err := loadProfile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
	// A custom profile drives a simulation end-to-end.
	w := mustWorkload(t, WorkloadSpec{ModelName: "alexnet", NumLayers: 4,
		Dataset: FoodsSpec(), PlanKind: 0, Placement: 0})
	cfg, err := VistaConfig(w)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(w, cfg, p)
	if r.Crash != nil {
		t.Fatalf("run on custom profile crashed: %v", r.Crash)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestComputeEfficiency(t *testing.T) {
	// Tiny variants share their full-scale model's efficiency.
	if computeEfficiency("tiny-vgg16") != computeEfficiency("vgg16") {
		t.Error("tiny variant efficiency differs")
	}
	if computeEfficiency("unknown-model") != 1.0 {
		t.Error("unknown models should default to 1.0")
	}
	// VGG16 (dense convs) runs closest to peak; AlexNet is lowest per-FLOP.
	if !(computeEfficiency("vgg16") > computeEfficiency("resnet50")) {
		t.Error("vgg16 should out-utilize resnet50")
	}
}
