// Command vista-explain shows what the Vista optimizer (Algorithm 1) decides
// for a given environment, CNN, and dataset — the Table 1(B) variables, the
// intermediate-size estimates behind them, and the predicted runtime on the
// calibrated cluster profile.
//
// Example:
//
//	vista-explain -model resnet50 -dataset amazon -nodes 8 -mem 32
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

func main() {
	var (
		model   = flag.String("model", "resnet50", "roster CNN: alexnet, vgg16, resnet50")
		dataset = flag.String("dataset", "foods", "dataset preset: foods or amazon")
		layers  = flag.Int("layers", 0, "number of top feature layers (0 = paper default per model)")
		nodes   = flag.Int("nodes", 8, "worker nodes")
		cores   = flag.Int("cores", 8, "cores per worker")
		memGB   = flag.Float64("mem", 32, "system memory per worker (GB)")
		gpuGB   = flag.Float64("gpu", 0, "GPU memory per worker (GB, 0 = no GPU)")
		ignite  = flag.Bool("ignite", false, "memory-only (Ignite-like) PD system")
		sweep   = flag.Bool("sweep-mem", false, "sweep worker memory from 8 to 64 GB and report feasibility / decisions / predicted runtime")
		summary = flag.Bool("summary", false, "print the model's layer table (shapes, params, FLOPs) and exit")
	)
	flag.Parse()

	if *summary {
		m, err := cnn.ByName(*model)
		if err == nil {
			var out string
			if out, err = cnn.Summary(m); err == nil {
				fmt.Print(out)
				return
			}
		}
		fmt.Fprintln(os.Stderr, "vista-explain:", err)
		os.Exit(1)
	}
	if *sweep {
		if err := sweepMemory(*model, *dataset, *layers, *nodes, *cores, *gpuGB, *ignite); err != nil {
			fmt.Fprintln(os.Stderr, "vista-explain:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*model, *dataset, *layers, *nodes, *cores, *memGB, *gpuGB, *ignite); err != nil {
		fmt.Fprintln(os.Stderr, "vista-explain:", err)
		os.Exit(1)
	}
}

// sweepMemory answers the capacity-planning question behind Algorithm 1's
// "no feasible solution" exception ("the user can provision machines with
// more memory"): at which worker size does the workload become feasible, and
// how do the decision and predicted runtime evolve from there?
func sweepMemory(model, dataset string, layers, nodes, cores int, gpuGB float64, ignite bool) error {
	fmt.Printf("Memory sweep: %s/%s, %d nodes × %d cores\n\n", model, dataset, nodes, cores)
	fmt.Printf("%-8s %-10s %-5s %-6s %-10s %-13s %s\n",
		"mem", "feasible", "cpu", "np", "join", "pers", "predicted")
	for _, memGB := range []float64{8, 12, 16, 24, 32, 48, 64} {
		line, err := sweepPoint(model, dataset, layers, nodes, cores, memGB, gpuGB, ignite)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	return nil
}

func sweepPoint(model, dataset string, layers, nodes, cores int, memGB, gpuGB float64, ignite bool) (string, error) {
	wi, err := whatIf(model, dataset, layers, nodes, cores, memGB, gpuGB, ignite)
	if errors.Is(err, optimizer.ErrNoFeasible) {
		return fmt.Sprintf("%-8s %-10s", fmt.Sprintf("%.0f GB", memGB), "no"), nil
	}
	if err != nil {
		return "", err
	}
	pred := "crash"
	if wi.Result.Crash == nil {
		pred = fmt.Sprintf("%.1f min", wi.Result.TotalMin())
	}
	d := wi.Decision
	return fmt.Sprintf("%-8s %-10s %-5d %-6d %-10v %-13v %s",
		fmt.Sprintf("%.0f GB", memGB), "yes", d.CPU, d.NP, d.Join, d.Pers, pred), nil
}

// whatIf asks sim.Vista what Vista picks for the workload on the given
// cluster, and what the run costs.
func whatIf(model, dataset string, layers, nodes, cores int, memGB, gpuGB float64, ignite bool) (*sim.WhatIf, error) {
	preset, ok := data.Preset(dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	return sim.Vista(sim.WorkloadSpec{
		ModelName: model, NumLayers: layers, Dataset: sim.PaperDataset(preset),
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: nodes, CPUSys: cores,
		MemSys: memory.GB(memGB), MemGPU: memory.GB(gpuGB),
		MemoryOnly: ignite,
	})
}

func run(model, dataset string, layers, nodes, cores int, memGB, gpuGB float64, ignite bool) error {
	// An infeasible workload still has its estimates to show: wi is nil only
	// when the workload does not build.
	wi, err := whatIf(model, dataset, layers, nodes, cores, memGB, gpuGB, ignite)
	if wi == nil {
		return err
	}
	in := wi.Workload.Inputs
	st := in.ModelStats
	fmt.Printf("Model %s: %d params, |f|_ser=%s, |f|_mem=%s, |f|_mem_gpu=%s\n",
		st.ModelName, st.Params, memory.FormatBytes(st.SerializedBytes),
		memory.FormatBytes(st.MemBytes), memory.FormatBytes(st.GPUMemBytes))
	fmt.Printf("Workload: %s (%d rows × %d features), |L|=%d\n\n", dataset, in.NumRows, in.StructDim, in.NumLayers)

	fmt.Println("Intermediate table estimates (Equation 16):")
	for i, ls := range wi.Workload.Plan.Layers {
		fmt.Printf("  T%d (%s): %s (raw %d elems, pooled %d dims)\n",
			i+1, ls.Name, memory.FormatBytes(wi.TableSizes[i]), ls.RawElems, ls.FeatureDim)
	}
	fmt.Printf("  s_single=%s  s_double=%s\n\n",
		memory.FormatBytes(wi.SSingle), memory.FormatBytes(wi.SDouble))

	if err != nil {
		return fmt.Errorf("optimizer: %w", err)
	}
	d := wi.Decision
	fmt.Println("Decision (Algorithm 1):")
	fmt.Printf("  cpu         = %d\n", d.CPU)
	fmt.Printf("  np          = %d\n", d.NP)
	fmt.Printf("  join        = %v\n", d.Join)
	fmt.Printf("  persistence = %v\n", d.Pers)
	fmt.Printf("  mem_storage = %s\n", memory.FormatBytes(d.MemStorage))
	fmt.Printf("  mem_user    = %s\n", memory.FormatBytes(d.MemUser))
	fmt.Printf("  mem_dl      = %s\n\n", memory.FormatBytes(d.MemDL))

	r := wi.Result
	if r.Crash != nil {
		return fmt.Errorf("simulated run crashed (should not happen with an optimizer decision): %w", r.Crash)
	}
	fmt.Printf("Predicted runtime on %s: %.1f min (read %.1f, join %.1f, spills %s)\n",
		wi.Profile.Name, r.TotalMin(), r.ReadSec/60, r.JoinSec/60, memory.FormatBytes(r.SpilledBytes))
	for _, l := range r.Layers {
		fmt.Printf("  %-10s infer %6.1fs  train %6.1fs\n", l.Layer, l.InferSec, l.TrainFirstSec+l.TrainRestSec)
	}
	return nil
}
