package calib

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/sim"
)

// TestStoragePeakMatchesModel pins the memory model's shape against the
// engine: a cold run's measured peak storage is what Section 4.1 prices,
// within [0.95, 1.05]. While the join kept its image input cached until it
// returned, every AJ run peaked at about 1.9x the estimate inside ingest +
// join, with the image bytes resident twice; while training copied the stage
// table into train and test splits, tiny-densenet (the largest raw carry)
// peaked at 1.20x and tiny-resnet50 at 1.06x.
func TestStoragePeakMatchesModel(t *testing.T) {
	type run struct {
		model     string
		kind      plan.Kind
		placement plan.JoinPlacement
		rows      int
	}
	var runs []run
	for _, m := range []string{"tiny-alexnet", "tiny-vgg16", "tiny-resnet50", "tiny-densenet"} {
		runs = append(runs, run{m, plan.Staged, plan.AfterJoin, 400})
	}
	runs = append(runs,
		run{"tiny-alexnet", plan.Lazy, plan.AfterJoin, 400},
		run{"tiny-alexnet", plan.Eager, plan.AfterJoin, 400},
		run{"tiny-alexnet", plan.Staged, plan.BeforeJoin, 400},
		run{"tiny-densenet", plan.Lazy, plan.AfterJoin, 400},
		run{"tiny-densenet", plan.Staged, plan.BeforeJoin, 400},
		run{"tiny-densenet", plan.Staged, plan.AfterJoin, 100},
		run{"tiny-densenet", plan.Staged, plan.AfterJoin, 1500})
	catalog := data.NewCatalog()
	for _, r := range runs {
		name := fmt.Sprintf("%s/%s/%s", r.model, r.kind, r.placement)
		if r.rows != 400 {
			name += fmt.Sprintf("/%drows", r.rows)
		}
		t.Run(name, func(t *testing.T) {
			tables, err := catalog.Get(data.Foods().WithRows(r.rows))
			if err != nil {
				t.Fatal(err)
			}
			spec := core.Spec{
				Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32),
				SystemKind: memory.SparkLike,
				ModelName:  r.model, NumLayers: 2,
				Downstream: core.DefaultDownstream(),
				Seed:       1,
				PlanKind:   r.kind, Placement: r.placement,
				SpillDir: t.TempDir(),
			}.WithTables(tables)
			res, err := core.Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			simRes, err := Simulate(EnvFromSpec(spec, "foods"), spec.NumLayers)
			if err != nil {
				t.Fatal(err)
			}
			rep := sim.CompareStorage(simRes, res.Trace)
			if rep.PredPeakStorageBytes <= 0 {
				t.Fatalf("no peak-storage estimate: %+v", rep)
			}
			drift := float64(rep.MeasPeakStorageBytes) / float64(rep.PredPeakStorageBytes)
			if drift < 0.95 || drift > 1.05 {
				t.Errorf("peak storage drift %.3fx (measured %d, estimated %d), want within [0.95, 1.05]",
					drift, rep.MeasPeakStorageBytes, rep.PredPeakStorageBytes)
			}
		})
	}
}
