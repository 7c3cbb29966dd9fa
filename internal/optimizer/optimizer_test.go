package optimizer

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/plan"
)

// paperCluster returns the CloudLab setup of Section 5: 8 workers, 32 GB RAM,
// 8 cores each.
func paperCluster(t *testing.T, model string, layers, rows, structDim int) Inputs {
	t.Helper()
	m, err := cnn.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cnn.ComputeStats(m)
	if err != nil {
		t.Fatal(err)
	}
	maxDim := structDim
	ls, err := st.TopLayerStats(layers)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ls {
		if l.FeatureDim+structDim > maxDim {
			maxDim = l.FeatureDim + structDim
		}
	}
	return Inputs{
		ModelStats:         st,
		NumLayers:          layers,
		NumRows:            rows,
		StructDim:          structDim,
		DownstreamMemBytes: LogRegMemBytes(maxDim),
		Placement:          MInPDUserMemory,
		NNodes:             8,
		MemSys:             memory.GB(32),
		CPUSys:             8,
	}
}

// apportionsDemand reports whether d's apportionment holds the Demand it was
// planned from and fits System Memory (Equation 12): DL Execution and User
// Memory are exactly the demand, every region is non-negative, and the
// regions sum to at most MemSys.
func apportionsDemand(in Inputs, d Decision, params Params) bool {
	tables, _, err := Planned(in, params)
	if err != nil {
		return false
	}
	need := Demand(in, d.CPU, d.NP, tables, params)
	a := d.Apportionment(params)
	return a.DLExecution == need.DL && a.User == need.User &&
		min(a.OSReserved, a.DLExecution, a.User, a.Core, a.Storage) >= 0 &&
		a.OSReserved+a.DLExecution+a.User+a.Core+a.Storage <= in.MemSys
}

func TestOptimizerPicksPaperCPUValues(t *testing.T) {
	// Figure 11: "the Vista optimizer picks either optimal or near-optimal
	// cpu values; AlexNet: 7, VGG16: 4, and ResNet50: 7" (Foods, 8 nodes).
	tests := []struct {
		model   string
		layers  int
		wantCPU int
	}{
		{"alexnet", 4, 7},
		{"vgg16", 3, 4},
		{"resnet50", 5, 7},
	}
	for _, tc := range tests {
		t.Run(tc.model, func(t *testing.T) {
			in := paperCluster(t, tc.model, tc.layers, 20000, 130)
			d, err := Optimize(in, DefaultParams())
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if d.CPU != tc.wantCPU {
				t.Errorf("cpu = %d, want %d (paper Figure 11)", d.CPU, tc.wantCPU)
			}
		})
	}
}

func TestOptimizerNPMultipleOfCores(t *testing.T) {
	// Equation 13: np must be a multiple of cpu × nnodes.
	in := paperCluster(t, "resnet50", 5, 20000, 130)
	d, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.NP%(d.CPU*in.NNodes) != 0 {
		t.Errorf("np = %d not a multiple of cpu×nnodes = %d", d.NP, d.CPU*in.NNodes)
	}
	// Equation 14: partitions under PMax.
	if part := d.SSingle / int64(d.NP); part >= DefaultParams().PMax {
		t.Errorf("partition size %d >= pmax", part)
	}
}

func TestOptimizerMemoryConstraint(t *testing.T) {
	// Equation 12: the apportionment must fit system memory.
	for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
		in := paperCluster(t, model, 3, 20000, 130)
		d, err := Optimize(in, DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if !apportionsDemand(in, d, DefaultParams()) {
			t.Errorf("%s: apportionment %+v does not hold its demand within system memory",
				model, d.Apportionment(DefaultParams()))
		}
		if d.MemStorage <= 0 {
			t.Errorf("%s: non-positive storage memory", model)
		}
	}
}

func TestOptimizerBroadcastDecision(t *testing.T) {
	// Small Tstr (under bmax) → broadcast; huge Tstr → shuffle.
	small := paperCluster(t, "alexnet", 4, 20000, 130)
	d, err := Optimize(small, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.Join != dataflow.BroadcastJoin {
		t.Errorf("small Tstr: join = %v, want broadcast", d.Join)
	}
	big := paperCluster(t, "alexnet", 4, 200000, 10000) // 200k × 10k features ≈ 8 GB
	d, err = Optimize(big, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.Join != dataflow.ShuffleJoin {
		t.Errorf("large Tstr: join = %v, want shuffle", d.Join)
	}
}

func TestOptimizerSerializationDecision(t *testing.T) {
	// Foods fits in memory → deserialized; a large scale of ResNet
	// (8× Amazon-like) overflows per-worker storage → serialized.
	fits := paperCluster(t, "alexnet", 4, 20000, 130)
	d, err := Optimize(fits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.Pers != dataflow.Deserialized {
		t.Errorf("fitting workload: pers = %v, want deserialized", d.Pers)
	}
	spills := paperCluster(t, "resnet50", 5, 1600000, 130)
	d, err = Optimize(spills, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.Pers != dataflow.Serialized {
		t.Errorf("overflowing workload: pers = %v, want serialized (sdouble %s vs storage %s)",
			d.Pers, memory.FormatBytes(d.SDouble/8), memory.FormatBytes(d.MemStorage))
	}
}

func TestOptimizerNoFeasible(t *testing.T) {
	in := paperCluster(t, "vgg16", 3, 20000, 130)
	in.MemSys = memory.GB(8) // too small for even one VGG16 replica + core
	_, err := Optimize(in, DefaultParams())
	if !errors.Is(err, ErrNoFeasible) {
		t.Errorf("expected ErrNoFeasible, got %v", err)
	}
}

func TestOptimizerGPUConstraint(t *testing.T) {
	// Figure 7A setup: single node, 12 GB GPU. VGG16 replicas are ~2.6 GB
	// on device, so cpu must drop below 5 (Equation 15) — the paper's
	// Lazy-5/Lazy-7 VGG16 GPU crashes are exactly configs that ignore this.
	in := paperCluster(t, "vgg16", 3, 20000, 130)
	in.NNodes = 1
	in.MemGPU = memory.GB(12)
	d, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	st := in.ModelStats
	if int64(d.CPU)*st.GPUMemBytes >= in.MemGPU {
		t.Errorf("cpu = %d violates GPU memory: %d replicas × %s >= 12 GB",
			d.CPU, d.CPU, memory.FormatBytes(st.GPUMemBytes))
	}
	if d.CPU >= 5 {
		t.Errorf("cpu = %d, want < 5 (5 VGG16 GPU replicas exceed 12 GB in the paper)", d.CPU)
	}
}

func TestOptimizerValidation(t *testing.T) {
	good := paperCluster(t, "alexnet", 4, 1000, 10)
	cases := []func(*Inputs){
		func(i *Inputs) { i.ModelStats = nil },
		func(i *Inputs) { i.NumLayers = 0 },
		func(i *Inputs) { i.NumRows = 0 },
		func(i *Inputs) { i.StructDim = -1 },
		func(i *Inputs) { i.NNodes = 0 },
		func(i *Inputs) { i.CPUSys = 0 },
		func(i *Inputs) { i.MemSys = 0 },
		func(i *Inputs) { i.NumLayers = 99 }, // more layers than the model has
	}
	for i, mutate := range cases {
		in := good
		mutate(&in)
		if _, err := Optimize(in, DefaultParams()); err == nil {
			t.Errorf("case %d: invalid inputs accepted", i)
		}
	}
}

func TestEstimateTableSize(t *testing.T) {
	// Equation 16 with α = 2: 2·(16 + 4·dim)·rows + |Tstr|.
	got := EstimateTableSize(100, 10, 5, 2)
	want := int64(2*(16+40)*100) + StructTableSize(100, 5)
	if got != want {
		t.Errorf("EstimateTableSize = %d, want %d", got, want)
	}
	if StructTableSize(100, 5) != 100*(16+20) {
		t.Errorf("StructTableSize = %d", StructTableSize(100, 5))
	}
}

func TestIntermediateSizesOrdering(t *testing.T) {
	in := paperCluster(t, "resnet50", 5, 20000, 130)
	sizes, sSingle, sDouble, err := IntermediateSizes(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 5 {
		t.Fatalf("got %d sizes, want 5", len(sizes))
	}
	var maxSize int64
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	if sSingle != maxSize {
		t.Errorf("sSingle = %d, want max %d", sSingle, maxSize)
	}
	if sDouble <= sSingle {
		// Two adjacent tables minus Tstr must exceed the single max for
		// ResNet's similar-sized conv5 layers.
		t.Errorf("sDouble = %d not above sSingle = %d", sDouble, sSingle)
	}
}

func TestIntermediateSizesSingleLayer(t *testing.T) {
	in := paperCluster(t, "alexnet", 1, 1000, 10)
	in.ImageRowBytes = 14 << 10 // paper's ~14 KB JPEG
	sizes, sSingle, sDouble, err := IntermediateSizes(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 {
		t.Fatalf("sizes = %v, want 1 entry", sizes)
	}
	base := StructTableSize(1000, 10) + 1000*(14<<10)
	if sSingle != max(base, sizes[0]) {
		t.Errorf("sSingle = %d, want max(base %d, T0 %d)", sSingle, base, sizes[0])
	}
	if want := base + sizes[0] - StructTableSize(1000, 10); sDouble != want {
		t.Errorf("sDouble = %d, want base+T0−Tstr = %d", sDouble, want)
	}
}

func TestNumPartitions(t *testing.T) {
	// 1 GB across 4×2 cores with 100 MB cap: needs ceil(1024/800)=2
	// multiples → 16 partitions.
	np := NumPartitions(memory.GB(1), 4, 2, memory.MB(100))
	if np != 16 {
		t.Errorf("np = %d, want 16", np)
	}
	// Tiny data: one partition per core.
	np = NumPartitions(memory.MB(1), 4, 2, memory.MB(100))
	if np != 8 {
		t.Errorf("np = %d, want 8", np)
	}
	if NumPartitions(100, 0, 0, memory.MB(100)) != 1 {
		t.Error("degenerate core count should yield 1")
	}
}

// Property: for any valid inputs, a returned decision satisfies every
// Algorithm 1 constraint.
func TestOptimizerConstraintsProperty(t *testing.T) {
	m := cnn.ResNet50()
	st, err := cnn.ComputeStats(m)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	f := func(rowSeed uint16, nodeSeed, cpuSeed, memSeed uint8) bool {
		in := Inputs{
			ModelStats:         st,
			NumLayers:          int(nodeSeed%5) + 1,
			NumRows:            int(rowSeed)*100 + 1000,
			StructDim:          int(cpuSeed)%500 + 1,
			DownstreamMemBytes: memory.MB(32),
			NNodes:             int(nodeSeed%8) + 1,
			MemSys:             memory.GB(float64(memSeed%48) + 8),
			CPUSys:             int(cpuSeed%16) + 1,
		}
		d, err := Optimize(in, params)
		if errors.Is(err, ErrNoFeasible) {
			return true // infeasible is a legitimate outcome
		}
		if err != nil {
			return false
		}
		// Equation 9.
		if d.CPU < 1 || d.CPU > minInt(in.CPUSys, params.CPUMax)-1 {
			return false
		}
		// Equation 12.
		if !apportionsDemand(in, d, params) {
			return false
		}
		// Equation 13.
		if d.NP%(d.CPU*in.NNodes) != 0 {
			return false
		}
		// Equation 14.
		return d.SSingle/int64(d.NP) < params.PMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMemoryOnlyConstraint(t *testing.T) {
	// A memory-only (Ignite-like) system adds the storage-must-fit
	// constraint: for Amazon/ResNet50 it lowers or keeps cpu while still
	// finding a feasible configuration (Vista never crashes on Ignite).
	in := paperCluster(t, "resnet50", 5, 200000, 200)
	in.ImageRowBytes = 14 << 10
	spark, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	in.StorageMustFit = true
	in.WholePartitionDecode = true
	ignite, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatalf("memory-only workload should stay feasible: %v", err)
	}
	if ignite.CPU > spark.CPU {
		t.Errorf("memory-only cpu %d exceeds spillable cpu %d", ignite.CPU, spark.CPU)
	}
	tables, _, err := Planned(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !tables.Compressed {
		t.Error("memory-only plans should store the compressed format")
	}
	need := Demand(in, ignite.CPU, ignite.NP, tables, DefaultParams()).Storage
	if ignite.MemStorage < need {
		t.Errorf("storage %d below the memory-only floor %d", ignite.MemStorage, need)
	}
}

func TestPlannedStoragePeak(t *testing.T) {
	in := paperCluster(t, "resnet50", 5, 20000, 130)
	in.ImageRowBytes = 14 << 10
	in.NNodes = 1
	tables, _, err := Planned(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Two adjacent raw conv tables dominate: conv4_6 (16 GB) + conv5_1
	// (8 GB) + base; peak must land between 20 and 40 GB.
	peak := Demand(in, 1, 1, tables, DefaultParams()).Storage
	if peak < 20<<30 || peak > 40<<30 {
		t.Errorf("staged peak = %s, expected 20-40 GB", memory.FormatBytes(peak))
	}
	bad := in
	bad.NumLayers = 99
	if _, _, err := Planned(bad, DefaultParams()); err == nil {
		t.Error("oversized layer count accepted")
	}
	// An unset image size falls back to InputBytes/4 per row.
	in.ImageRowBytes = 0
	unset, _, err := Planned(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if want := tables.Base - 20000*(14<<10) + 20000*(in.ModelStats.InputBytes/4); unset.Base != want {
		t.Errorf("base with default image bytes = %d, want %d", unset.Base, want)
	}
}

// TestPlanTables checks each plan's record layout: AJ tables carry Tstr, Lazy
// holds pooled vectors, Eager and a pre-materialized base the raw tensor, and
// Staged both.
func TestPlanTables(t *testing.T) {
	in := paperCluster(t, "alexnet", 3, 1000, 10)
	in.ImageRowBytes = 100
	tstr := StructTableSize(1000, 10)
	for _, tc := range []struct {
		kind      plan.Kind
		placement plan.JoinPlacement
		premat    bool
		row       func(l cnn.LayerStat) int64
	}{
		{plan.Lazy, plan.BeforeJoin, false, func(l cnn.LayerStat) int64 { return 4 * int64(l.FeatureDim) }},
		{plan.Eager, plan.BeforeJoin, false, func(l cnn.LayerStat) int64 { return l.RawBytes }},
		{plan.Staged, plan.AfterJoin, false, func(l cnn.LayerStat) int64 { return 4*int64(l.FeatureDim) + l.RawBytes }},
		{plan.Lazy, plan.BeforeJoin, true, func(l cnn.LayerStat) int64 { return 4 * int64(l.FeatureDim) }},
	} {
		p, err := plan.Compile(tc.kind, tc.placement, in.ModelStats, 3, plan.Options{PreMaterializeBase: tc.premat})
		if err != nil {
			t.Fatal(err)
		}
		tables := PlanTables(in, p)
		if want := tstr + 1000*100; tables.Base != want {
			t.Errorf("%v: base = %d, want %d", tc.kind, tables.Base, want)
		}
		for i, l := range p.Layers {
			want := 1000 * (16 + tc.row(l))
			if i == p.PreMaterializedBase {
				want = 1000 * (16 + l.RawBytes)
			}
			if tc.placement == plan.AfterJoin {
				want += tstr
			}
			if tables.Layers[i] != want {
				t.Errorf("%v premat=%t: layer %d = %d, want %d", tc.kind, tc.premat, i, tables.Layers[i], want)
			}
			if tables.Layers[i] > tables.Single {
				t.Errorf("%v: Single %d below layer %d's table", tc.kind, tables.Single, i)
			}
		}
	}
}

func TestDLMemoryNeedPlacements(t *testing.T) {
	in := paperCluster(t, "alexnet", 4, 1000, 10)
	in.DownstreamMemBytes = memory.GB(100) // enormous M
	params := DefaultParams()
	tables, _, err := Planned(in, params)
	if err != nil {
		t.Fatal(err)
	}
	pd := Demand(in, 4, 64, tables, params)
	in.Placement = MInDLMemory
	dl := Demand(in, 4, 64, tables, params)
	if dl.DL <= pd.DL {
		t.Errorf("DL-resident M should raise DL need: %d vs %d", dl.DL, pd.DL)
	}
	// And the same giant M in PD placement raises User need instead.
	if pd.User < 4*memory.GB(100) || dl.User >= 4*memory.GB(100) {
		t.Errorf("PD-resident M should dominate User need: %d (PD) vs %d (DL)", pd.User, dl.User)
	}
}

func TestDownstreamMemEstimates(t *testing.T) {
	if LogRegMemBytes(1000) <= LogRegMemBytes(10) {
		t.Error("LogRegMemBytes not monotone in dim")
	}
	small := MLPMemBytes(100, []int{32})
	big := MLPMemBytes(8000, []int{1024, 1024})
	if big <= small {
		t.Error("MLPMemBytes not monotone in network size")
	}
	// The paper's 3-layer 1024-unit MLP over ~8k features is ~10M params.
	if big < memory.MB(100) {
		t.Errorf("large MLP estimate %s implausibly small", memory.FormatBytes(big))
	}
}

func TestFullyCachedShrinksNeeds(t *testing.T) {
	cold := paperCluster(t, "vgg16", 3, 20000, 10)
	warm := cold
	warm.FullyCached = true

	params := DefaultParams()
	demand := func(in Inputs) Regions {
		tables, _, err := Planned(in, params)
		if err != nil {
			t.Fatal(err)
		}
		return Demand(in, 4, NumPartitions(memory.GB(10), 4, 8, params.PMax), tables, params)
	}

	// No inference → no CNN replicas in DL Execution Memory.
	if need := demand(warm).DL; need != 0 {
		t.Errorf("fully-cached DL need = %d, want 0", need)
	}
	if demand(cold).DL == 0 {
		t.Error("cold DL need should charge replicas")
	}
	warmDL := warm
	warmDL.Placement = MInDLMemory
	if need := demand(warmDL).DL; need != 4*warmDL.DownstreamMemBytes {
		t.Errorf("DL-resident downstream must still be charged, got %d", need)
	}

	// User Memory loses the serialized model, decode buffers, and
	// activations.
	if wu, cu := demand(warm).User, demand(cold).User; wu >= cu {
		t.Errorf("fully-cached User need %d not below cold %d", wu, cu)
	}

	// The base joined table drops the image payloads (Equation 16 inputs
	// shrink), so both peaks decrease.
	_, coldSingle, coldDouble, err := IntermediateSizes(cold, params)
	if err != nil {
		t.Fatal(err)
	}
	_, warmSingle, warmDouble, err := IntermediateSizes(warm, params)
	if err != nil {
		t.Fatal(err)
	}
	if warmSingle > coldSingle || warmDouble >= coldDouble {
		t.Errorf("cached peaks (%d,%d) not below cold (%d,%d)", warmSingle, warmDouble, coldSingle, coldDouble)
	}
}

func TestOptimizeInferScaleRaisesDLMemory(t *testing.T) {
	// The Equation 11 replica footprint reaches the decision as is: a CNN
	// whose |f|_mem is 3x larger must show up in the decision's MemDL, and
	// the larger footprint squeezes the rest of the apportionment.
	in := paperCluster(t, "vgg16", 3, 20000, 130)
	plain, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	big := *in.ModelStats
	big.MemBytes *= 3
	in.ModelStats = &big
	scaled, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(scaled.CPU) * big.MemBytes; scaled.MemDL != want {
		t.Errorf("scaled MemDL = %d, want %d", scaled.MemDL, want)
	}
	if scaled.CPU > plain.CPU {
		t.Errorf("3x DL footprint should not raise cpu: %d vs %d", scaled.CPU, plain.CPU)
	}
	// Same cpu would leave less Storage; lower cpu is the other legal escape.
	if scaled.CPU == plain.CPU && scaled.MemStorage >= plain.MemStorage {
		t.Errorf("3x DL footprint left storage untouched: %d vs %d", scaled.MemStorage, plain.MemStorage)
	}
}

func TestOptimizeTrainScaleFeedsUserMemory(t *testing.T) {
	// |M|_mem reaches User Memory unscaled. With a PD-resident downstream
	// model big enough to dominate User Memory, a 3x larger model must show
	// up in the decision's MemUser.
	in := paperCluster(t, "alexnet", 4, 20000, 130)
	in.DownstreamMemBytes = memory.GB(2)
	plain, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	in.DownstreamMemBytes *= 3
	scaled, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if scaled.MemUser <= plain.MemUser {
		t.Errorf("3x downstream model did not raise MemUser: %d vs %d", scaled.MemUser, plain.MemUser)
	}
	if want := int64(scaled.CPU) * in.DownstreamMemBytes; scaled.MemUser != want {
		t.Errorf("scaled MemUser = %d, want cpu x |M| = %d", scaled.MemUser, want)
	}
}
