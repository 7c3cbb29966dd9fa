package sim

import (
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
