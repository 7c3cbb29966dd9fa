package core

import (
	"testing"

	"repro/internal/memory"
)

func TestExplainMatchesRun(t *testing.T) {
	spec := tinySpec(t, 60)
	ex, err := Explain(spec)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Infeasible != nil {
		t.Fatalf("unexpectedly infeasible: %v", ex.Infeasible)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ex.Decision != res.Decision {
		t.Errorf("Explain decision %+v differs from Run's %+v", ex.Decision, res.Decision)
	}
}

func TestExplainInfeasible(t *testing.T) {
	spec := tinySpec(t, 60)
	spec.ModelName = "tiny-vgg16"
	spec.MemPerNode = memory.MB(8) // smaller than OS reservation
	ex, err := Explain(spec)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Infeasible == nil {
		t.Fatal("8 MB node reported feasible")
	}
}

func TestExplainValidatesSpec(t *testing.T) {
	spec := tinySpec(t, 10)
	spec.ModelName = "nope"
	if _, err := Explain(spec); err == nil {
		t.Error("invalid spec accepted")
	}
}
