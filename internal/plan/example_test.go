package plan_test

import (
	"fmt"

	"repro/internal/cnn"
	"repro/internal/plan"
)

// ExampleCompile shows the Staged plan for AlexNet's top four layers: four
// contiguous partial-inference stages, each emitting one layer and carrying
// its raw tensor to the next (except the last).
func ExampleCompile() {
	stats, _ := cnn.ComputeStats(cnn.AlexNet())
	p, _ := plan.Compile(plan.Staged, plan.AfterJoin, stats, 4, plan.Options{})
	fmt.Println(p.Name())
	for i, s := range p.Steps {
		fmt.Printf("stage %d: layers [%d..%d] emit %s keepRaw=%v\n",
			i, s.From, s.Emits[len(s.Emits)-1].LayerIndex, s.Emits[0].LayerName, s.KeepRaw)
	}
	// Output:
	// Staged/AJ
	// stage 0: layers [0..6] emit conv5 keepRaw=true
	// stage 1: layers [7..8] emit fc6 keepRaw=true
	// stage 2: layers [9..9] emit fc7 keepRaw=true
	// stage 3: layers [10..10] emit fc8 keepRaw=false
}

// ExamplePlan_TotalInferenceFLOPs quantifies the Lazy plan's redundancy: for
// AlexNet's four layers, Lazy repeats nearly the whole network per layer.
func ExamplePlan_TotalInferenceFLOPs() {
	stats, _ := cnn.ComputeStats(cnn.AlexNet())
	lazy, _ := plan.Compile(plan.Lazy, plan.BeforeJoin, stats, 4, plan.Options{})
	staged, _ := plan.Compile(plan.Staged, plan.AfterJoin, stats, 4, plan.Options{})
	ratio := float64(lazy.TotalInferenceFLOPs()) / float64(staged.TotalInferenceFLOPs())
	fmt.Printf("lazy does %.1fx the inference work of staged\n", ratio)
	// Output: lazy does 3.9x the inference work of staged
}
