package optimizer

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/memory"
)

func TestScaleBytesIdentityIsExact(t *testing.T) {
	// Identity factors must return the input untouched — not merely a value
	// that rounds back. Pricing bit-exactness under an absent profile depends
	// on no float round-trip happening at all. Non-positive factors are
	// "unset", which no fit produces.
	vals := []int64{0, 1, 7, 1<<40 + 3, 1<<62 + 12345}
	for _, v := range vals {
		for _, f := range []float64{0, 1, -2.5} {
			if got := ScaleBytes(v, f); got != v {
				t.Errorf("ScaleBytes(%d, %v) = %d, want identity", v, f, got)
			}
		}
	}
	if got := ScaleBytes(1000, 2.5); got != 2500 {
		t.Errorf("ScaleBytes(1000, 2.5) = %d, want 2500", got)
	}
	if got := ScaleBytes(1001, 0.5); got != 500 {
		t.Errorf("ScaleBytes(1001, 0.5) = %d, want 500 (truncated)", got)
	}
}

func TestOptimizeIdentityScalesBitExact(t *testing.T) {
	// An explicit factor of 1 must reproduce the unscaled decision exactly:
	// an empty or identity profile changes nothing about plan choice.
	in := paperCluster(t, "resnet50", 5, 20000, 130)
	plain, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.StorageScale = 1
	scaled, err := Optimize(in, params)
	if err != nil {
		t.Fatal(err)
	}
	if plain != scaled {
		t.Errorf("identity scale changed the decision:\nplain  %+v\nscaled %+v", plain, scaled)
	}
}

func TestOptimizeStorageScaleFlipsPersistence(t *testing.T) {
	// Algorithm 1 line 15 serializes when the per-worker share of sDouble
	// overflows Storage Memory. A fitted storage factor saying the memory
	// model under-estimates intermediates by 12× must flip a comfortably-
	// fitting workload from Deserialized to Serialized — the plan is
	// re-ranked under the corrected constants.
	in := paperCluster(t, "alexnet", 4, 20000, 130)
	plain, err := Optimize(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Pers != dataflow.Deserialized {
		t.Fatalf("baseline workload should fit deserialized, got %v", plain.Pers)
	}
	params := DefaultParams()
	params.StorageScale = 12
	scaled, err := Optimize(in, params)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Pers != dataflow.Serialized {
		t.Errorf("12x storage scale: pers = %v, want serialized (sdouble %s vs storage %s)",
			scaled.Pers, memory.FormatBytes(scaled.SDouble), memory.FormatBytes(scaled.MemStorage))
	}
	if scaled.SDouble != ScaleBytes(plain.SDouble, 12) {
		t.Errorf("scaled sDouble = %d, want %d", scaled.SDouble, ScaleBytes(plain.SDouble, 12))
	}
	if scaled.NP < plain.NP {
		t.Errorf("12x larger intermediates should not shrink np: %d vs %d", scaled.NP, plain.NP)
	}
	// The factor is a byte correction to Equation 16 only: the DL replicas
	// (Equation 11) and the downstream model's User Memory (Equation 10) are
	// priced from the paper constants at whatever cpu and np were chosen.
	if want := DLMemoryNeed(in, scaled.CPU); scaled.MemDL != want {
		t.Errorf("scaled MemDL = %d, want unscaled Equation 11 %d", scaled.MemDL, want)
	}
	if want := UserMemoryNeed(in, scaled.CPU, scaled.NP, params); scaled.MemUser != want {
		t.Errorf("scaled MemUser = %d, want unscaled Equation 10 %d", scaled.MemUser, want)
	}
}

func TestOptimizeInferScaleRaisesDLMemory(t *testing.T) {
	// No fitted factor scales the Equation 11 replica footprint; a CNN whose
	// |f|_mem is 3x larger must still reach the decision's MemDL, and the
	// larger footprint squeezes the rest of the apportionment.
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
	if want := DLMemoryNeed(in, scaled.CPU); scaled.MemDL != want {
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

func TestOptimizeStorageScaleTripsMemoryOnlyFeasibility(t *testing.T) {
	// Memory-only systems must hold the scaled peak in Storage; a fitted
	// factor saying intermediates are far bigger than modeled turns a feasible
	// Ignite-like workload infeasible instead of letting it crash at runtime.
	in := paperCluster(t, "resnet50", 5, 200000, 200)
	in.ImageRowBytes = 14 << 10
	in.StorageMustFit = true
	in.WholePartitionDecode = true
	if _, err := Optimize(in, DefaultParams()); err != nil {
		t.Fatalf("baseline memory-only workload should be feasible: %v", err)
	}
	params := DefaultParams()
	params.StorageScale = 40
	if _, err := Optimize(in, params); err == nil {
		t.Error("40x storage scale should make the memory-only workload infeasible")
	}
}
