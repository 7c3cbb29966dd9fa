// Layerexplore: why the Staged plan wins (Section 4.2.1).
//
// The example runs the same multi-layer feature-transfer workload under the
// Lazy, Eager, and Staged logical plans on the real engine and contrasts
// their measured compute (FLOPs) and memory behavior; it then asks the
// analytical simulator what the same plans would cost at the paper's full
// cluster scale, where Eager's memory blow-up turns into spills and crashes.
//
// Run with:
//
//	go run ./examples/layerexplore
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/sim"
)

func main() {
	spec := data.Foods().WithRows(600)
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Real engine, tiny scale: identical models, very different work ==")
	fmt.Printf("%-10s %12s %14s %12s %10s\n", "plan", "FLOPs (G)", "peak storage", "spilled", "test F1")
	for _, kind := range []plan.Kind{plan.Lazy, plan.Eager, plan.Staged} {
		runSpec := core.Spec{
			Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
			SystemKind: memory.SparkLike,
			ModelName:  "tiny-alexnet", NumLayers: 4,
			Downstream: core.DefaultDownstream(),
			StructRows: structRows, ImageRows: imageRows,
			Seed:     3,
			PlanKind: kind, Placement: plan.AfterJoin,
		}
		res, err := core.Run(runSpec)
		if err != nil {
			log.Fatal(err)
		}
		c := res.Counters
		fmt.Printf("%-10s %12.2f %14s %12s %9.1f%%\n",
			kind, float64(c.FLOPs)/1e9,
			memory.FormatBytes(c.PeakStorageBytes), memory.FormatBytes(c.BytesSpilled),
			res.Layers[len(res.Layers)-1].Test.F1*100)
	}
	fmt.Println("\nAll three plans train identical models (Section 5.2) — the difference")
	fmt.Println("is Lazy's redundant inference and Eager's peak memory footprint.")

	fmt.Println("\n== Simulator, paper scale (8×32 GB nodes, Amazon/ResNet50, |L|=5) ==")
	for _, kind := range []plan.Kind{plan.Lazy, plan.Eager, plan.Staged} {
		// Vista's decision depends on the workload's shape, not its plan, so
		// every plan runs under the configuration Vista picks for Staged.
		wi, err := sim.Vista(sim.WorkloadSpec{
			ModelName: "resnet50", NumLayers: 5, Dataset: sim.AmazonSpec(),
			PlanKind: kind, Placement: plan.AfterJoin,
		})
		if err != nil {
			log.Fatal(err)
		}
		r := wi.Result
		if r.Crash != nil {
			fmt.Printf("%-10s CRASH: %v\n", kind, r.Crash)
			continue
		}
		fmt.Printf("%-10s %6.1f min (spilled %s)\n", kind, r.TotalMin(), memory.FormatBytes(r.SpilledBytes))
	}
	fmt.Println("\nStaged gets Eager's compute without its footprint — Figure 2(D)'s")
	fmt.Println("\"best of both worlds\" point.")
}
