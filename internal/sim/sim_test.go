package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

func mustWorkload(t *testing.T, ws WorkloadSpec) Workload {
	t.Helper()
	w, err := NewWorkload(ws)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mustVista is Vista's what-if for ws; the test fails when nothing fits.
func mustVista(t *testing.T, ws WorkloadSpec) *WhatIf {
	t.Helper()
	wi, err := Vista(ws)
	if err != nil {
		t.Fatalf("Vista found no config for %s/%s: %v", ws.ModelName, ws.Dataset.Name, err)
	}
	return wi
}

func vistaRun(t *testing.T, model string, ds DatasetSpec, prof Profile) Result {
	t.Helper()
	memOnly := !prof.Kind.SupportsSpill()
	return mustVista(t, WorkloadSpec{ModelName: model, Dataset: ds,
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: prof.Nodes, MemoryOnly: memOnly}).Result
}

func lazyRun(t *testing.T, model string, ds DatasetSpec, cpu int, prof Profile) Result {
	t.Helper()
	memOnly := !prof.Kind.SupportsSpill()
	w := mustWorkload(t, WorkloadSpec{ModelName: model,
		Dataset: ds, PlanKind: plan.Lazy, Placement: plan.BeforeJoin,
		Nodes: prof.Nodes, MemoryOnly: memOnly})
	cfg := BaselineSpark(cpu)
	if memOnly {
		cfg = BaselineIgnite(cpu)
	}
	return Run(w, cfg, prof)
}

// TestVistaNeverCrashes checks the paper's headline reliability claim over
// the full Figure 6 grid: "Unlike the baselines, Vista never crashes."
func TestVistaNeverCrashes(t *testing.T) {
	for _, prof := range []Profile{PaperCluster(), IgniteCluster()} {
		for _, ds := range []DatasetSpec{FoodsSpec(), AmazonSpec()} {
			for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
				r := vistaRun(t, model, ds, prof)
				if r.Crash != nil {
					t.Errorf("%s/%s/%s: Vista crashed: %v", prof.Name, ds.Name, model, r.Crash)
				}
			}
		}
	}
}

// TestSparkVGGBaselineCrashes checks Section 5.1: "On Spark-TF, Lazy-5 and
// Lazy-7 crash on both datasets for VGG16", while Lazy-1 survives.
func TestSparkVGGBaselineCrashes(t *testing.T) {
	for _, ds := range []DatasetSpec{FoodsSpec(), AmazonSpec()} {
		for _, cpu := range []int{5, 7} {
			r := lazyRun(t, "vgg16", ds, cpu, PaperCluster())
			oom, ok := memory.IsOOM(r.Crash)
			if !ok {
				t.Errorf("%s Lazy-%d VGG16 should crash, got %v", ds.Name, cpu, r.Crash)
				continue
			}
			if oom.Scenario != memory.DLBlowup {
				t.Errorf("%s Lazy-%d VGG16 crash scenario = %v, want dl-execution-blowup", ds.Name, cpu, oom.Scenario)
			}
		}
		if r := lazyRun(t, "vgg16", ds, 1, PaperCluster()); r.Crash != nil {
			t.Errorf("%s Lazy-1 VGG16 should survive: %v", ds.Name, r.Crash)
		}
	}
}

// TestBaselinesSurviveWherePaperSaysSo covers the non-crashing Figure 6
// baseline cells for AlexNet/ResNet50 on Spark.
func TestBaselinesSurviveWherePaperSaysSo(t *testing.T) {
	for _, ds := range []DatasetSpec{FoodsSpec(), AmazonSpec()} {
		for _, model := range []string{"alexnet", "resnet50"} {
			for _, cpu := range []int{1, 5, 7} {
				if r := lazyRun(t, model, ds, cpu, PaperCluster()); r.Crash != nil {
					t.Errorf("spark %s/%s Lazy-%d should survive: %v", ds.Name, model, cpu, r.Crash)
				}
			}
		}
	}
}

// TestIgniteAmazonLazy7Crashes checks "On Ignite-TF, Lazy-7 crashes for all
// CNNs on Amazon" while Lazy-5 survives for AlexNet/ResNet50.
func TestIgniteAmazonLazy7Crashes(t *testing.T) {
	for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
		r := lazyRun(t, model, AmazonSpec(), 7, IgniteCluster())
		if r.Crash == nil {
			t.Errorf("ignite Amazon Lazy-7 %s should crash", model)
		}
	}
	for _, model := range []string{"alexnet", "resnet50"} {
		r := lazyRun(t, model, AmazonSpec(), 5, IgniteCluster())
		if r.Crash != nil {
			t.Errorf("ignite Amazon Lazy-5 %s should survive: %v", model, r.Crash)
		}
	}
}

// TestIgniteEagerAmazonResNetCrashes checks "On Ignite-TF, Eager on Amazon
// also crashes for ResNet50 due to intermediate data exhausting the total
// available system memory."
func TestIgniteEagerAmazonResNetCrashes(t *testing.T) {
	w := mustWorkload(t, WorkloadSpec{ModelName: "resnet50", NumLayers: 5,
		Dataset: AmazonSpec(), PlanKind: plan.Eager, Placement: plan.BeforeJoin, MemoryOnly: true})
	r := Run(w, TunedBaseline(w, 5), IgniteCluster())
	oom, ok := memory.IsOOM(r.Crash)
	if !ok {
		t.Fatalf("expected storage crash, got %v", r.Crash)
	}
	if oom.Scenario != memory.StorageExhausted {
		t.Errorf("scenario = %v, want storage-exhausted", oom.Scenario)
	}
	// The same Eager plan on Spark survives but pays heavy spills.
	ws := mustWorkload(t, WorkloadSpec{ModelName: "resnet50", NumLayers: 5,
		Dataset: AmazonSpec(), PlanKind: plan.Eager, Placement: plan.BeforeJoin})
	rs := Run(ws, TunedBaseline(ws, 5), PaperCluster())
	if rs.Crash != nil {
		t.Fatalf("spark Eager should spill, not crash: %v", rs.Crash)
	}
	if rs.SpilledBytes <= 0 {
		t.Error("spark Eager/ResNet50/Amazon should spill heavily")
	}
	vista := vistaRun(t, "resnet50", AmazonSpec(), PaperCluster())
	if vista.TotalMin() >= rs.TotalMin() {
		t.Errorf("Vista (%.1f min) should beat spilling Eager (%.1f min)", vista.TotalMin(), rs.TotalMin())
	}
}

// TestVistaSpeedupsMatchPaperRange checks the headline efficiency claim:
// Vista is 58–92% faster than Lazy-1 and 62–72% faster than Lazy-7 (we allow
// ±10 points — the substrate is a calibrated simulator).
func TestVistaSpeedupsMatchPaperRange(t *testing.T) {
	for _, ds := range []DatasetSpec{FoodsSpec(), AmazonSpec()} {
		for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
			vista := vistaRun(t, model, ds, PaperCluster())
			if vista.Crash != nil {
				t.Fatalf("vista crashed: %v", vista.Crash)
			}
			lazy1 := lazyRun(t, model, ds, 1, PaperCluster())
			if lazy1.Crash != nil {
				t.Fatalf("lazy-1 crashed: %v", lazy1.Crash)
			}
			gain := 1 - vista.TotalMin()/lazy1.TotalMin()
			if gain < 0.48 || gain > 0.97 {
				t.Errorf("%s/%s: Vista vs Lazy-1 gain = %.0f%%, paper range 58–92%%",
					ds.Name, model, gain*100)
			}
			lazy7 := lazyRun(t, model, ds, 7, PaperCluster())
			if lazy7.Crash != nil {
				continue // VGG16: Lazy-7 crashes, no ratio to check
			}
			gain7 := 1 - vista.TotalMin()/lazy7.TotalMin()
			if gain7 < 0.40 || gain7 > 0.85 {
				t.Errorf("%s/%s: Vista vs Lazy-7 gain = %.0f%%, paper range 62–72%%",
					ds.Name, model, gain7*100)
			}
		}
	}
}

// TestGPUProfile checks Figure 7A: on the 12 GB GPU workstation, 5+ VGG16
// replicas crash (Equation 15) while Vista's optimizer stays under the
// device limit.
func TestGPUProfile(t *testing.T) {
	prof := SingleNodeGPU()
	w := mustWorkload(t, WorkloadSpec{ModelName: "vgg16", NumLayers: 3,
		Dataset: FoodsSpec(), PlanKind: plan.Lazy, Placement: plan.BeforeJoin,
		Nodes: 1, MemGPU: prof.GPU.MemBytes})
	for _, cpu := range []int{5, 7} {
		r := Run(w, BaselineSpark(cpu), prof)
		oom, ok := memory.IsOOM(r.Crash)
		if !ok || oom.Scenario != memory.DeviceExhausted {
			t.Errorf("GPU Lazy-%d VGG16: want gpu-memory-exhausted, got %v", cpu, r.Crash)
		}
	}
	vista := mustVista(t, WorkloadSpec{ModelName: "vgg16", NumLayers: 3,
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: 1, MemGPU: prof.GPU.MemBytes})
	wv, cfg := vista.Workload, vista.Config
	if r := Run(wv, cfg, prof); r.Crash != nil {
		t.Errorf("Vista on GPU crashed: %v", r.Crash)
	}
}

// TestEagerDegradesWithScale checks Figure 9's shape: Eager and Staged are
// comparable at 1X but Eager falls behind as the data scales (disk spills of
// all-layer materialization).
func TestEagerDegradesWithScale(t *testing.T) {
	ratioAt := func(scale float64) float64 {
		ds := FoodsSpec().Scale(scale)
		we := mustWorkload(t, WorkloadSpec{ModelName: "resnet50", NumLayers: 5,
			Dataset: ds, PlanKind: plan.Eager, Placement: plan.AfterJoin})
		vista := mustVista(t, WorkloadSpec{ModelName: "resnet50", NumLayers: 5,
			Dataset: ds, PlanKind: plan.Staged, Placement: plan.AfterJoin})
		ws, cfg := vista.Workload, vista.Config
		// Figure 9 pins the physical plan to Shuffle/Deserialized; the
		// spills driving Eager's degradation are a deserialized-format
		// phenomenon.
		cfg.Pers = dataflow.Deserialized
		re := Run(we, cfg, PaperCluster())
		rs := Run(ws, cfg, PaperCluster())
		if re.Crash != nil || rs.Crash != nil {
			t.Fatalf("unexpected crash at scale %v: %v / %v", scale, re.Crash, rs.Crash)
		}
		return re.TotalMin() / rs.TotalMin()
	}
	small := ratioAt(1)
	big := ratioAt(8)
	if small > 1.6 {
		t.Errorf("Eager/Staged at 1X = %.2f; should be comparable (Figure 9)", small)
	}
	if big <= small || big < 1.5 {
		t.Errorf("Eager/Staged at 8X = %.2f (1X = %.2f); Eager must degrade with scale", big, small)
	}
}

// TestLazyAlwaysSlowerThanStaged checks the redundancy argument end-to-end:
// under identical configs, Lazy's repeated inference makes it strictly
// slower than Staged for multi-layer transfer.
func TestLazyAlwaysSlowerThanStaged(t *testing.T) {
	for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
		vista := mustVista(t, WorkloadSpec{ModelName: model,
			Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin})
		ws, cfg := vista.Workload, vista.Config
		wl := mustWorkload(t, WorkloadSpec{ModelName: model,
			Dataset: FoodsSpec(), PlanKind: plan.Lazy, Placement: plan.AfterJoin})
		rs := Run(ws, cfg, PaperCluster())
		rl := Run(wl, cfg, PaperCluster())
		if rs.Crash != nil || rl.Crash != nil {
			t.Fatalf("%s: unexpected crash %v / %v", model, rs.Crash, rl.Crash)
		}
		if rl.TotalMin() <= rs.TotalMin() {
			t.Errorf("%s: Lazy (%.1f) not slower than Staged (%.1f)", model, rl.TotalMin(), rs.TotalMin())
		}
	}
}

// TestHighNPOverhead checks Figure 11(B)'s right side: runtimes rise again
// at very high np.
func TestHighNPOverhead(t *testing.T) {
	vista := mustVista(t, WorkloadSpec{ModelName: "alexnet", NumLayers: 4,
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin})
	w, cfg := vista.Workload, vista.Config
	base := Run(w, cfg, PaperCluster())
	cfgHigh := cfg
	cfgHigh.NP = 6000
	high := Run(w, cfgHigh, PaperCluster())
	if high.Crash != nil {
		t.Fatalf("high-np run crashed: %v", high.Crash)
	}
	if high.TotalSec() <= base.TotalSec() {
		t.Errorf("np=6000 (%.1fs) should be slower than np=%d (%.1fs)",
			high.TotalSec(), cfg.NP, base.TotalSec())
	}
}

// TestLowNPCrashes checks Figure 11(B)'s left side: too few partitions crash
// the join with oversized partitions.
func TestLowNPCrashes(t *testing.T) {
	vista := mustVista(t, WorkloadSpec{ModelName: "resnet50", NumLayers: 5,
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin})
	w, cfg := vista.Workload, vista.Config
	cfg.NP = 4
	r := Run(w, cfg, PaperCluster())
	oom, ok := memory.IsOOM(r.Crash)
	if !ok || oom.Scenario != memory.LargePartition {
		t.Errorf("np=4: want oversized-partition crash, got %v", r.Crash)
	}
}

// TestBroadcastCrashAtManyFeatures checks Figure 10(3,4): broadcast joins
// crash once the structured side outgrows driver memory.
func TestBroadcastCrashAtManyFeatures(t *testing.T) {
	mkCfg := func(dim int) (Workload, Config) {
		ds := FoodsSpec().Scale(8).WithStructDim(dim)
		vista := mustVista(t, WorkloadSpec{ModelName: "alexnet", NumLayers: 4,
			Dataset: ds, PlanKind: plan.Staged, Placement: plan.AfterJoin})
		w, cfg := vista.Workload, vista.Config
		cfg.Join = dataflow.BroadcastJoin
		return w, cfg
	}
	w, cfg := mkCfg(100)
	if r := Run(w, cfg, PaperCluster()); r.Crash != nil {
		t.Errorf("broadcast with 100 features should work: %v", r.Crash)
	}
	w, cfg = mkCfg(10000)
	r := Run(w, cfg, PaperCluster())
	oom, ok := memory.IsOOM(r.Crash)
	if !ok || oom.Scenario != memory.DriverOOM {
		t.Errorf("broadcast with 10000 features: want driver-oom, got %v", r.Crash)
	}
}

// TestOptimizerAvoidsBroadcastCrash: for the same oversized Tstr, Vista's own
// decision switches to shuffle and survives.
func TestOptimizerAvoidsBroadcastCrash(t *testing.T) {
	ds := FoodsSpec().Scale(8).WithStructDim(10000)
	vista := mustVista(t, WorkloadSpec{ModelName: "alexnet", NumLayers: 4,
		Dataset: ds, PlanKind: plan.Staged, Placement: plan.AfterJoin})
	w, cfg := vista.Workload, vista.Config
	if cfg.Join != dataflow.ShuffleJoin {
		t.Errorf("optimizer chose %v for an oversized Tstr, want shuffle", cfg.Join)
	}
	if r := Run(w, cfg, PaperCluster()); r.Crash != nil {
		t.Errorf("Vista's choice crashed: %v", r.Crash)
	}
}

// TestCrashCheckTies holds every crash scenario at its exact boundary: a
// region whose availability equals its optimizer.Demand survives and one
// byte less crashes with that region's scenario. Device memory is the
// exception (Equation 15 is strict): it crashes at equality.
func TestCrashCheckTies(t *testing.T) {
	w := mustWorkload(t, WorkloadSpec{ModelName: "alexnet", Dataset: FoodsSpec(),
		PlanKind: plan.Staged, Placement: plan.AfterJoin})
	params := optimizer.DefaultParams()
	huge := memory.GB(1 << 20)
	// roomy gives every region huge availability on prof's hardware.
	roomy := func(prof Profile) (Config, Profile) {
		prof.MemPerNode, prof.DriverMem = huge, huge
		if prof.GPU != nil {
			prof.GPU.MemBytes = huge
		}
		return Config{CPU: 4, NP: 64, Join: dataflow.BroadcastJoin, Pers: dataflow.Deserialized,
			Apportion: memory.Apportionment{OSReserved: params.MemOSReserved,
				DLExecution: huge, User: huge, Core: huge, Storage: huge}}, prof
	}
	for _, tc := range []struct {
		scenario memory.CrashScenario
		region   memory.Region
		prof     Profile
		// need reads the row's demand; set gives the row avail bytes.
		need func(d optimizer.Regions, cfg Config) int64
		set  func(cfg *Config, prof *Profile, avail int64)
	}{
		{memory.DeviceExhausted, memory.Device, SingleNodeGPU(),
			func(d optimizer.Regions, _ Config) int64 { return d.Device },
			func(_ *Config, prof *Profile, avail int64) { prof.GPU.MemBytes = avail }},
		{memory.LargePartition, memory.Core, PaperCluster(),
			func(d optimizer.Regions, _ Config) int64 { return d.Core },
			func(cfg *Config, _ *Profile, avail int64) { cfg.Apportion.Core = avail }},
		{memory.InsufficientUser, memory.User, PaperCluster(),
			func(d optimizer.Regions, _ Config) int64 { return d.User },
			func(cfg *Config, _ *Profile, avail int64) { cfg.Apportion.User = avail }},
		{memory.DriverOOM, memory.Driver, PaperCluster(),
			func(d optimizer.Regions, _ Config) int64 { return d.Driver },
			func(_ *Config, prof *Profile, avail int64) { prof.DriverMem = avail }},
		{memory.DLBlowup, memory.DLExecution, PaperCluster(),
			func(d optimizer.Regions, cfg Config) int64 {
				return params.MemOSReserved + d.User + params.MemCore + min(d.Storage, cfg.Apportion.Storage) + d.DL
			},
			func(_ *Config, prof *Profile, avail int64) { prof.MemPerNode = avail }},
		{memory.StorageExhausted, memory.Storage, IgniteCluster(),
			func(d optimizer.Regions, _ Config) int64 { return d.Storage },
			func(cfg *Config, _ *Profile, avail int64) { cfg.Apportion.Storage = avail }},
	} {
		cfg, prof := roomy(tc.prof)
		m := newModel(w, cfg, prof)
		need := tc.need(optimizer.Demand(m.in, cfg.CPU, cfg.NP, m.t, params), cfg)
		survives, crashes := need, need-1
		if tc.scenario == memory.DeviceExhausted {
			survives, crashes = need+1, need
		}
		for _, c := range []struct {
			avail int64
			crash bool
		}{{survives, false}, {crashes, true}} {
			cfg, prof := roomy(tc.prof)
			tc.set(&cfg, &prof, c.avail)
			r := Run(w, cfg, prof)
			oom, ok := memory.IsOOM(r.Crash)
			switch {
			case !c.crash && r.Crash != nil:
				t.Errorf("%v: %d available for a demand of %d crashed: %v", tc.scenario, c.avail, need, r.Crash)
			case c.crash && (!ok || oom.Scenario != tc.scenario || oom.Region != tc.region):
				t.Errorf("%v: %d available for a demand of %d: want %v in %v region, got %v", tc.scenario, c.avail, need, tc.scenario, tc.region, r.Crash)
			}
		}
	}
}

// TestTunedBaselineDLFollowsDemand: the tuned baseline reserves Equation 11's
// DL Execution Memory, not a flat cpu × |f|_mem: a fully-cached run loads no
// CNN replicas, and an MLP downstream on the DL side is charged there.
func TestTunedBaselineDLFollowsDemand(t *testing.T) {
	cached := func(int, bool) bool { return true }
	for _, tc := range []struct {
		name string
		ws   WorkloadSpec
		want func(in optimizer.Inputs) int64
	}{
		{"cold", WorkloadSpec{ModelName: "alexnet", Dataset: FoodsSpec()},
			func(in optimizer.Inputs) int64 { return 5 * in.ModelStats.MemBytes }},
		{"cached", WorkloadSpec{ModelName: "alexnet", Dataset: FoodsSpec(), Stored: cached},
			func(optimizer.Inputs) int64 { return 0 }},
		{"cached-mlp", WorkloadSpec{ModelName: "alexnet", Dataset: FoodsSpec(), Stored: cached,
			Downstream: Downstream{MLP: true, Hidden: []int{1024}}},
			func(in optimizer.Inputs) int64 { return 5 * in.DownstreamMemBytes }},
	} {
		w := mustWorkload(t, tc.ws)
		a := TunedBaseline(w, 5).Apportion
		if want := tc.want(w.Inputs); a.DLExecution != want {
			t.Errorf("%s: DL Execution = %d, want %d", tc.name, a.DLExecution, want)
		}
		if got := a.OSReserved + a.DLExecution + a.User + a.Core + a.Storage; got != memory.GB(32) {
			t.Errorf("%s: apportionment totals %d, want all 32 GB", tc.name, got)
		}
	}
}

// TestTunedBaselineApportionsMemSys: the tuned baseline's regions sum to the
// worker's System Memory, whatever its size, not to the 32 GB default. At
// cpu 2 the other regions leave Storage room even on a 16 GB worker.
func TestTunedBaselineApportionsMemSys(t *testing.T) {
	for _, gb := range []float64{16, 64} {
		w := mustWorkload(t, WorkloadSpec{ModelName: "alexnet", Dataset: FoodsSpec(), MemSys: memory.GB(gb)})
		a := TunedBaseline(w, 2).Apportion
		if got := a.OSReserved + a.DLExecution + a.User + a.Core + a.Storage; got != memory.GB(gb) {
			t.Errorf("%.0f GB worker: apportionment totals %d, want %d", gb, got, memory.GB(gb))
		}
	}
}

// TestUnsetImageBytesDefault: a workload without an image-row size is priced
// with the optimizer's default (the input tensor at 4× compression), not as
// free images.
func TestUnsetImageBytesDefault(t *testing.T) {
	unset := FoodsSpec()
	unset.ImageRowBytes = 0
	w := mustWorkload(t, WorkloadSpec{ModelName: "alexnet", Dataset: unset})
	set := unset
	set.ImageRowBytes = w.Inputs.ModelStats.InputBytes / 4
	cfg := TunedBaseline(w, 5)
	got, want := Run(w, cfg, PaperCluster()), Run(mustWorkload(t, WorkloadSpec{ModelName: "alexnet", Dataset: set}), cfg, PaperCluster())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unset image bytes priced %+v, want %+v", got, want)
	}
}

// TestScaleupAndSpeedupShapes checks Figure 12: near-linear scaleup, and
// speedup that is sub-linear for AlexNet but closer to linear for VGG16.
func TestScaleupAndSpeedupShapes(t *testing.T) {
	runAt := func(model string, nodes int, scale float64) float64 {
		r := mustVista(t, WorkloadSpec{ModelName: model,
			Dataset: FoodsSpec().Scale(scale), PlanKind: plan.Staged, Placement: plan.AfterJoin,
			Nodes: nodes}).Result
		if r.Crash != nil {
			t.Fatalf("%s @%d nodes crashed: %v", model, nodes, r.Crash)
		}
		return r.TotalSec()
	}
	// Scaleup: 8 nodes on 8X data should take within 1.5x of 1 node on 1X.
	for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
		t1 := runAt(model, 1, 1)
		t8 := runAt(model, 8, 8)
		if ratio := t8 / t1; ratio > 1.5 {
			t.Errorf("%s scaleup ratio = %.2f, want near 1 (Figure 12A)", model, ratio)
		}
	}
	// Speedup on fixed data: VGG16 should parallelize better than AlexNet.
	alexSpeedup := runAt("alexnet", 1, 1) / runAt("alexnet", 8, 1)
	vggSpeedup := runAt("vgg16", 1, 1) / runAt("vgg16", 8, 1)
	if vggSpeedup <= alexSpeedup {
		t.Errorf("VGG16 speedup (%.1f) should exceed AlexNet's (%.1f) (Figure 12B)",
			vggSpeedup, alexSpeedup)
	}
	if alexSpeedup >= 7.5 {
		t.Errorf("AlexNet speedup %.1f should be clearly sub-linear", alexSpeedup)
	}
}

// TestTable3Ballpark compares the simulated per-layer breakdown against the
// paper's Table 3 single-node and 8-node totals (CNN inference + LR first
// iteration), within 2x.
func TestTable3Ballpark(t *testing.T) {
	tests := []struct {
		model        string
		nodes        int
		wantTotalMin float64 // Table 3 "total" row
		wantReadMin  float64 // Table 3 "Read images" row
	}{
		{"resnet50", 1, 29.9, 3.7},
		{"resnet50", 8, 3.6, 0.7},
		{"alexnet", 1, 7.5, 3.9},
		{"alexnet", 8, 1.5, 0.8},
		{"vgg16", 1, 44.3, 4.6},
		{"vgg16", 8, 5.7, 0.9},
	}
	for _, tc := range tests {
		r := mustVista(t, WorkloadSpec{ModelName: tc.model,
			Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin, Nodes: tc.nodes}).Result
		if r.Crash != nil {
			t.Fatalf("%s@%d crashed: %v", tc.model, tc.nodes, r.Crash)
		}
		var inferPlusFirst float64
		for _, l := range r.Layers {
			inferPlusFirst += l.InferSec + l.TrainFirstSec
		}
		gotMin := inferPlusFirst / 60
		if gotMin < tc.wantTotalMin/2 || gotMin > tc.wantTotalMin*2 {
			t.Errorf("%s@%d nodes: inference+first-iter = %.1f min, paper %.1f (want within 2x)",
				tc.model, tc.nodes, gotMin, tc.wantTotalMin)
		}
		readMin := r.ReadSec / 60
		if readMin < tc.wantReadMin/2.5 || readMin > tc.wantReadMin*2.5 {
			t.Errorf("%s@%d nodes: read = %.1f min, paper %.1f (want within 2.5x)",
				tc.model, tc.nodes, readMin, tc.wantReadMin)
		}
	}
}

// TestPreMaterializationShapes checks Appendix B / Figure 16: pre-mat helps
// AlexNet clearly, but for ResNet50's 5-layer selection the enormous base
// table makes it a wash or worse.
func TestPreMaterializationShapes(t *testing.T) {
	run := func(model string, k int, premat bool) float64 {
		vista := mustVista(t, WorkloadSpec{ModelName: model, NumLayers: k,
			Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin, PreMat: premat})
		w, cfg := vista.Workload, vista.Config
		r := Run(w, cfg, PaperCluster())
		if r.Crash != nil {
			t.Fatalf("%s premat=%v crashed: %v", model, premat, r.Crash)
		}
		return r.TotalSec()
	}
	if with, without := run("alexnet", 4, true), run("alexnet", 4, false); with >= without {
		t.Errorf("AlexNet 4L: pre-mat (%.0fs) should beat from-images (%.0fs)", with, without)
	}
	// ResNet50 5L: the conv4_6 base is ~16 GB; pre-mat gains shrink or
	// invert (Figure 16(C): "may or may not decrease the overall runtime").
	with5, without5 := run("resnet50", 5, true), run("resnet50", 5, false)
	withRatio5 := with5 / without5
	with4, without4 := run("resnet50", 4, true), run("resnet50", 4, false)
	withRatio4 := with4 / without4
	if withRatio4 >= 1 {
		t.Errorf("ResNet50 4L: pre-mat ratio = %.2f, should help", withRatio4)
	}
	if withRatio5 <= withRatio4 {
		t.Errorf("ResNet50 5L pre-mat ratio (%.2f) should be worse than 4L's (%.2f)",
			withRatio5, withRatio4)
	}
}

// TestSerializedReducesSpills checks Section 4.2.3/Figure 10: at large
// scale the serialized format cuts spill volume.
func TestSerializedReducesSpills(t *testing.T) {
	ds := FoodsSpec().Scale(8)
	vista := mustVista(t, WorkloadSpec{ModelName: "resnet50", NumLayers: 5,
		Dataset: ds, PlanKind: plan.Staged, Placement: plan.AfterJoin})
	w, cfg := vista.Workload, vista.Config
	cfgD, cfgS := cfg, cfg
	cfgD.Pers = dataflow.Deserialized
	cfgS.Pers = dataflow.Serialized
	rd := Run(w, cfgD, PaperCluster())
	rs := Run(w, cfgS, PaperCluster())
	if rd.Crash != nil || rs.Crash != nil {
		t.Fatalf("crashes: %v / %v", rd.Crash, rs.Crash)
	}
	if rd.SpilledBytes > 0 && rs.SpilledBytes >= rd.SpilledBytes {
		t.Errorf("serialized spills (%d) not below deserialized (%d)", rs.SpilledBytes, rd.SpilledBytes)
	}
}

func TestRunValidation(t *testing.T) {
	vista := mustVista(t, WorkloadSpec{ModelName: "alexnet", NumLayers: 2,
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin})
	w, cfg := vista.Workload, vista.Config
	bad := w
	bad.Plan = nil
	if r := Run(bad, cfg, PaperCluster()); r.Crash == nil {
		t.Error("nil plan accepted")
	}
	badCfg := cfg
	badCfg.CPU = 0
	if r := Run(w, badCfg, PaperCluster()); r.Crash == nil {
		t.Error("cpu=0 accepted")
	}
	badProf := PaperCluster()
	badProf.Nodes = 0
	if r := Run(w, cfg, badProf); r.Crash == nil {
		t.Error("0-node profile accepted")
	}
	badW := w
	badW.TrainIters = 0
	if r := Run(badW, cfg, PaperCluster()); r.Crash == nil {
		t.Error("0 train iters accepted")
	}
}

func TestNewWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(WorkloadSpec{ModelName: "nope", NumLayers: 1, Dataset: FoodsSpec()}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewWorkload(WorkloadSpec{ModelName: "alexnet", NumLayers: 99, Dataset: FoodsSpec()}); err == nil {
		t.Error("oversized layer count accepted")
	}
}

// TestVistaInfeasible: a workload nothing fits still reports its Equation 16
// estimates alongside ErrNoFeasible.
func TestVistaInfeasible(t *testing.T) {
	wi, err := Vista(WorkloadSpec{ModelName: "vgg16", NumLayers: 3,
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin,
		MemSys: memory.GB(8)})
	if !errors.Is(err, optimizer.ErrNoFeasible) {
		t.Fatalf("want ErrNoFeasible on an 8 GB node, got %v", err)
	}
	if len(wi.TableSizes) != 3 || wi.SDouble <= 0 {
		t.Errorf("infeasible what-if lacks its estimates: %+v", wi)
	}
}

// TestNumLayersDefaultsToAllFeatureLayers: |L| = 0 selects every feature
// layer of the model, the paper's default, for every roster CNN.
func TestNumLayersDefaultsToAllFeatureLayers(t *testing.T) {
	for _, name := range cnn.RosterNames() {
		m, err := cnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w := mustWorkload(t, WorkloadSpec{ModelName: name, Dataset: FoodsSpec()})
		if got, want := w.Inputs.NumLayers, len(m.FeatureLayers); got != want || len(w.Plan.Layers) != want {
			t.Errorf("%s: |L| = 0 resolved to %d inputs / %d plan layers, want all %d",
				name, got, len(w.Plan.Layers), want)
		}
	}
}

func TestDatasetSpecHelpers(t *testing.T) {
	d := FoodsSpec().Scale(4)
	if d.Rows != 80000 {
		t.Errorf("Scale(4) rows = %d, want 80000", d.Rows)
	}
	if FoodsSpec().WithStructDim(999).StructDim != 999 {
		t.Error("WithStructDim broken")
	}
	if AmazonSpec().Rows != 200000 || AmazonSpec().StructDim != 200 {
		t.Error("Amazon preset wrong")
	}
}

// TestScaleNeverTruncatesToZeroRows pins the rounding bug: a scale factor
// below 1/Rows used to truncate the product to zero rows, and a zero-row
// dataset walks through every per-row cost model (and the optimizer's
// feasibility check) as a silent no-op.
func TestScaleNeverTruncatesToZeroRows(t *testing.T) {
	cases := []struct {
		rows int
		f    float64
		want int
	}{
		{20000, 1.0 / 40000, 1}, // product 0.5: truncated to 0 before the fix
		{20000, 0, 1},           // degenerate factor still yields a dataset
		{20000, 1.0 / 20000, 1}, // exactly one row survives
		{20000, 0.25, 5000},     // ordinary down-scaling is untouched
		{20000, 8, 160000},      // paper's 8X
	}
	for _, c := range cases {
		d := DatasetSpec{Name: "t", Rows: c.rows, StructDim: 1, ImageRowBytes: 1}
		if got := d.Scale(c.f).Rows; got != c.want {
			t.Errorf("Scale(%v) on %d rows = %d, want %d", c.f, c.rows, got, c.want)
		}
	}
}

func TestPreMaterializationCost(t *testing.T) {
	vista := mustVista(t, WorkloadSpec{ModelName: "resnet50", NumLayers: 5,
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin, PreMat: true})
	w, cfg := vista.Workload, vista.Config
	r := PreMaterializationCost(w, cfg, PaperCluster())
	if r.Crash != nil {
		t.Fatalf("premat cost crashed: %v", r.Crash)
	}
	if r.TotalSec() <= 0 || len(r.Layers) != 1 || r.Layers[0].Layer != "conv4_6" {
		t.Errorf("premat cost malformed: %+v", r)
	}
}

func TestParallelEfficiencyShape(t *testing.T) {
	if parallelEfficiency(1) != 1 {
		t.Error("eff(1) != 1")
	}
	if parallelEfficiency(8) >= 5 || parallelEfficiency(8) <= 3 {
		t.Errorf("eff(8) = %.2f, want plateau near 4 (Figure 12C)", parallelEfficiency(8))
	}
	if parallelEfficiency(0) != 1 {
		t.Error("eff(0) should clamp to 1")
	}
	if !(parallelEfficiency(4) > parallelEfficiency(2)) {
		t.Error("eff not monotone")
	}
}

// TestSimCachedLayersCutInference checks the simulator's feature-store
// model: stores holding a growing bottom-up prefix of the features (and the
// raw carries the next live step resumes from) drop those stages' CNN
// compute (a warmer run is strictly faster), and a fully-warm run skips the
// image read entirely.
func TestSimCachedLayersCutInference(t *testing.T) {
	prof := PaperCluster()
	ws := WorkloadSpec{ModelName: "alexnet",
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin, Nodes: prof.Nodes}
	vista := mustVista(t, ws)
	w, cfg := vista.Workload, vista.Config
	cold := Run(w, cfg, prof)
	if cold.Crash != nil {
		t.Fatalf("cold run crashed: %v", cold.Crash)
	}

	prev := cold.TotalSec()
	for cachedL := 1; cachedL <= w.Inputs.NumLayers; cachedL++ {
		stored := make(map[int]bool)
		for _, l := range w.Plan.Layers[:cachedL] {
			stored[l.LayerIndex] = true
		}
		ws.Stored = func(layer int, _ bool) bool { return stored[layer] }
		warm, err := NewWorkload(ws)
		if err != nil {
			t.Fatal(err)
		}
		if got := warm.Plan.AttachedLayers(warm.Attached); got != cachedL {
			t.Fatalf("cached=%d attaches %d layers", cachedL, got)
		}
		r := Run(warm, cfg, prof)
		if r.Crash != nil {
			t.Fatalf("cached=%d crashed: %v", cachedL, r.Crash)
		}
		if tot := r.TotalSec(); tot >= prev {
			t.Errorf("cached=%d total %.1fs not below %.1fs", cachedL, tot, prev)
		} else {
			prev = tot
		}
		if cachedL < w.Inputs.NumLayers {
			continue
		}
		// Fully warm: no image ingestion, only Tstr is read.
		if !warm.Inputs.FullyCached {
			t.Error("every step attaches but the inputs are not fully cached")
		}
		if r.ReadSec >= cold.ReadSec {
			t.Errorf("fully-warm ReadSec %.2f not below cold %.2f", r.ReadSec, cold.ReadSec)
		}
	}
}

// TestSimTopStepsAttached prices a Staged workload whose store holds only
// the top layers' features, as an LRU that evicted the bottom entry and
// every raw carry leaves it: the top steps attach (each one's successor
// attaches, so no carry is needed), and inference is charged for the bottom
// step alone.
func TestSimTopStepsAttached(t *testing.T) {
	prof := PaperCluster()
	ws := WorkloadSpec{ModelName: "alexnet", NumLayers: 3,
		Dataset: FoodsSpec(), PlanKind: plan.Staged, Placement: plan.AfterJoin, Nodes: prof.Nodes}
	vista := mustVista(t, ws)
	cold := vista.Result
	if cold.Crash != nil {
		t.Fatalf("cold run crashed: %v", cold.Crash)
	}
	top := map[int]bool{}
	for _, l := range vista.Workload.Plan.Layers[1:] {
		top[l.LayerIndex] = true
	}
	ws.Stored = func(layer int, carry bool) bool { return !carry && top[layer] }
	w, err := NewWorkload(ws)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, true}; !reflect.DeepEqual(w.Attached, want) {
		t.Fatalf("Attached = %v, want %v", w.Attached, want)
	}
	if w.Inputs.FullyCached {
		t.Fatal("a live bottom step priced as a fully-warm run")
	}
	r := Run(w, vista.Config, prof)
	if r.Crash != nil {
		t.Fatalf("crashed: %v", r.Crash)
	}
	if r.Layers[0].InferSec != cold.Layers[0].InferSec {
		t.Errorf("bottom step InferSec %.2f, want the cold pass's %.2f", r.Layers[0].InferSec, cold.Layers[0].InferSec)
	}
	if r.ReadSec != cold.ReadSec {
		t.Errorf("ReadSec %.2f, want the cold image read %.2f", r.ReadSec, cold.ReadSec)
	}
	for _, lc := range r.Layers[1:] {
		// A live pass pays the DL stage startup (3 s) on top of its FLOPs;
		// an attach is a store read and one task wave.
		if lc.InferSec >= 3 {
			t.Errorf("%s: InferSec %.2f is priced as inference, not an attach", lc.Layer, lc.InferSec)
		}
	}
}
