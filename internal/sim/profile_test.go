package sim

import (
	"testing"

	"repro/internal/memory"
)

func TestProfilePresets(t *testing.T) {
	p := PaperCluster()
	if p.Nodes != 8 || p.MemPerNode != memory.GB(32) {
		t.Errorf("paper cluster = %d nodes × %s",
			p.Nodes, memory.FormatBytes(p.MemPerNode))
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

// TestVistaProfile: the what-if simulates on the cluster its spec describes
// (its node count and per-node memory, Ignite-like semantics, the GPU
// workstation's device), and never mutates the presets.
func TestVistaProfile(t *testing.T) {
	for _, tc := range []struct {
		ws   WorkloadSpec
		name string
	}{
		{WorkloadSpec{Nodes: 3, MemSys: memory.GB(48)}, "spark-cloudlab"},
		{WorkloadSpec{Nodes: 3, MemSys: memory.GB(48), MemoryOnly: true}, "ignite-cloudlab"},
		{WorkloadSpec{Nodes: 3, MemSys: memory.GB(48), MemGPU: memory.GB(6)}, "spark-gpu-workstation"},
	} {
		tc.ws.ModelName, tc.ws.Dataset = "alexnet", FoodsSpec()
		p := mustVista(t, tc.ws).Profile
		if p.Name != tc.name || p.Nodes != 3 || p.MemPerNode != memory.GB(48) {
			t.Errorf("%+v: profile %s with %d × %d B, want %s with 3 × 48 GB",
				tc.ws, p.Name, p.Nodes, p.MemPerNode, tc.name)
		}
		if (p.GPU != nil) != (tc.ws.MemGPU > 0) || p.GPU != nil && p.GPU.MemBytes != tc.ws.MemGPU {
			t.Errorf("%s: GPU %+v, want %d B of device memory", tc.name, p.GPU, tc.ws.MemGPU)
		}
	}
	if PaperCluster().Nodes != 8 || SingleNodeGPU().GPU.MemBytes != memory.GB(12) {
		t.Error("the what-if mutated a preset")
	}
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
