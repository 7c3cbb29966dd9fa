package memory

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestOOMErrorMessageAndIsOOM(t *testing.T) {
	err := &OOMError{Region: User, Scenario: InsufficientUser, Need: MB(600), Avail: MB(100), Detail: "feature TensorList"}
	msg := err.Error()
	for _, want := range []string{"insufficient-user-memory", "user", "600.0 MB", "100.0 MB", "feature TensorList"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
	wrapped := fmt.Errorf("task failed: %w", err)
	if oom, ok := IsOOM(wrapped); !ok || oom.Scenario != InsufficientUser {
		t.Error("IsOOM failed to unwrap")
	}
	if _, ok := IsOOM(errors.New("other")); ok {
		t.Error("IsOOM matched a non-OOM error")
	}
}

func TestRegionAndScenarioStrings(t *testing.T) {
	if Storage.String() != "storage" || DLExecution.String() != "dl-execution" {
		t.Error("region names wrong")
	}
	if DLBlowup.String() != "dl-execution-blowup" {
		t.Error("scenario name wrong")
	}
	if !strings.Contains(Region(99).String(), "99") || !strings.Contains(CrashScenario(99).String(), "99") {
		t.Error("unknown region/scenario should render numerically")
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2 << 10, "2.0 KB"},
		{MB(3.5), "3.5 MB"},
		{GB(2), "2.00 GB"},
	}
	for _, tc := range tests {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBaselineSparkApportionment(t *testing.T) {
	// Paper setup: 32 GB node, 29 GB heap. 40% user, rest split 50/50.
	a := BaselineSparkApportionment(GB(32), GB(29))
	if a.DLExecution != 0 {
		t.Error("baseline must not budget DL execution memory")
	}
	if a.User != int64(float64(GB(29))*0.40) {
		t.Errorf("user = %d", a.User)
	}
	if total := a.OSReserved + a.DLExecution + a.User + a.Core + a.Storage; total != GB(32) {
		t.Errorf("total = %d, want 32 GB", total)
	}
	if a.Storage+a.Core+a.User != GB(29) {
		t.Error("heap regions do not sum to heap")
	}
}

func TestBaselineIgniteApportionment(t *testing.T) {
	// Paper setup: 4 GB heap, 25 GB off-heap storage on a 32 GB node.
	a := BaselineIgniteApportionment(GB(32), GB(4), GB(25))
	if a.Storage != GB(25) {
		t.Errorf("storage = %d, want 25 GB", a.Storage)
	}
	if a.User+a.Core != GB(4) {
		t.Error("heap not split into user+core")
	}
	if a.OSReserved != GB(3) {
		t.Errorf("os reserved = %d, want 3 GB", a.OSReserved)
	}
}

func TestSystemKind(t *testing.T) {
	if !SparkLike.SupportsSpill() {
		t.Error("Spark-like must spill")
	}
	if IgniteLike.SupportsSpill() {
		t.Error("Ignite-like (memory-only) must not spill")
	}
	if SparkLike.String() != "spark" || IgniteLike.String() != "ignite" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(SystemKind(9).String(), "9") {
		t.Error("unknown kind should render numerically")
	}
}

func TestPoolAllocFree(t *testing.T) {
	p := NewPool(User, InsufficientUser, 100)
	if err := p.Alloc(60, "a"); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if p.Used() != 60 || p.Capacity()-p.Used() != 40 {
		t.Errorf("used/avail = %d/%d", p.Used(), p.Capacity()-p.Used())
	}
	err := p.Alloc(50, "b")
	if err == nil {
		t.Fatal("over-allocation succeeded")
	}
	oom, ok := IsOOM(err)
	if !ok || oom.Scenario != InsufficientUser || oom.Need != 50 || oom.Avail != 40 {
		t.Errorf("wrong OOM detail: %+v", oom)
	}
	p.Free(60)
	if p.Used() != 0 {
		t.Error("free did not release")
	}
	if p.Peak() != 60 {
		t.Errorf("peak = %d, want 60", p.Peak())
	}
	// Zero and negative requests are no-ops.
	if err := p.Alloc(0, ""); err != nil {
		t.Error("zero alloc failed")
	}
	if err := p.Alloc(-5, ""); err != nil {
		t.Error("negative alloc failed")
	}
}

func TestPoolFreeTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-free")
		}
	}()
	p := NewPool(Core, LargePartition, 10)
	p.Free(1)
}

func TestPoolNegativeCapacityClamped(t *testing.T) {
	p := NewPool(Storage, StorageExhausted, -5)
	if p.Capacity() != 0 {
		t.Errorf("capacity = %d, want 0", p.Capacity())
	}
	if err := p.Alloc(1, ""); err == nil {
		t.Error("allocation from empty pool succeeded")
	}
}

func TestPoolTryAllocOrEvict(t *testing.T) {
	p := NewPool(Storage, StorageExhausted, 100)
	if err := p.Alloc(90, "cached"); err != nil {
		t.Fatal(err)
	}
	evictable := int64(90)
	evictions := 0
	err := p.TryAllocOrEvict(50, "new partition", func(need int64) int64 {
		evictions++
		release := need
		if release > evictable {
			release = evictable
		}
		evictable -= release
		p.Free(release)
		return release
	})
	if err != nil {
		t.Fatalf("TryAllocOrEvict: %v", err)
	}
	if evictions == 0 {
		t.Error("expected at least one eviction")
	}
	if p.Used() != 50+90-(90-evictable) {
		t.Logf("used = %d, evictable remaining = %d", p.Used(), evictable)
	}
}

func TestPoolTryAllocOrEvictExhausts(t *testing.T) {
	p := NewPool(Storage, StorageExhausted, 100)
	if err := p.Alloc(100, "pinned"); err != nil {
		t.Fatal(err)
	}
	// Nothing evictable: must surface the OOM.
	err := p.TryAllocOrEvict(10, "x", func(int64) int64 { return 0 })
	if _, ok := IsOOM(err); !ok {
		t.Errorf("expected OOM, got %v", err)
	}
	// Nil evict behaves like plain Alloc.
	err = p.TryAllocOrEvict(10, "x", nil)
	if _, ok := IsOOM(err); !ok {
		t.Errorf("expected OOM with nil evict, got %v", err)
	}
}

func TestPoolConcurrentSafety(t *testing.T) {
	p := NewPool(Core, LargePartition, 1000)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := p.Alloc(1, ""); err == nil {
					p.Free(1)
				}
			}
		}()
	}
	wg.Wait()
	if p.Used() != 0 {
		t.Errorf("used = %d after balanced alloc/free", p.Used())
	}
}

// Property: a pool never reports used > capacity, and peak >= used always.
func TestPoolInvariantProperty(t *testing.T) {
	f := func(ops []int16) bool {
		p := NewPool(User, InsufficientUser, 500)
		var live int64
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				if err := p.Alloc(n, ""); err == nil {
					live += n
				}
			} else if -n <= live {
				p.Free(-n)
				live += n
			}
			if p.Used() > p.Capacity() || p.Peak() < p.Used() || p.Used() != live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGBMBHelpers(t *testing.T) {
	if GB(1) != 1<<30 || MB(1) != 1<<20 {
		t.Error("unit helpers wrong")
	}
	if GB(0.5) != 1<<29 {
		t.Error("fractional GB wrong")
	}
}
