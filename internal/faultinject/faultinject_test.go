package faultinject

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sites := ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// enabled reports whether any site is armed: what Hit's fast path checks.
func enabled() bool { return armedCount.Load() > 0 }

// calls reports how many times an armed site has been visited since arming
// (0 for unarmed sites).
func calls(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := sites[name]; ok {
		return s.calls
	}
	return 0
}

func TestDisarmedFastPath(t *testing.T) {
	DisarmAll()
	if enabled() {
		t.Fatal("layer enabled with no sites armed")
	}
	if err := Hit("nowhere"); err != nil {
		t.Fatalf("disarmed Hit failed: %v", err)
	}
	v := HitBytes("nowhere", 128)
	if v.Err != nil || v.SilentTear || v.Allowed != 128 {
		t.Fatalf("disarmed HitBytes = %+v", v)
	}
}

func TestFailNthFiresExactlyOnce(t *testing.T) {
	defer DisarmAll()
	Arm("site", FailNth(3))
	for i := 1; i <= 5; i++ {
		err := Hit("site")
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err = %v", i, err)
		}
		if err != nil {
			fe, ok := AsFault(fmt.Errorf("wrapped: %w", err))
			if !ok || fe.Site != "site" {
				t.Fatalf("fault not recoverable from chain: %v", err)
			}
		}
	}
	if n := calls("site"); n != 5 {
		t.Fatalf("calls = %d, want 5", n)
	}
}

func TestFailEveryKth(t *testing.T) {
	defer DisarmAll()
	Arm("site", FailEveryKth(2))
	var fails int
	for i := 0; i < 6; i++ {
		if Hit("site") != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("every-2nd fired %d times in 6 calls, want 3", fails)
	}
}

func TestFailAfterBytesTornPrefix(t *testing.T) {
	defer DisarmAll()
	Arm("io", FailAfterBytes(100))
	if v := HitBytes("io", 60); v.Err != nil || v.Allowed != 60 {
		t.Fatalf("first write: %+v", v)
	}
	v := HitBytes("io", 60)
	if v.Err == nil {
		t.Fatal("second write crossed the limit but did not fail")
	}
	if v.Allowed != 40 {
		t.Fatalf("torn prefix = %d, want 40 (100-60)", v.Allowed)
	}
	if v2 := HitBytes("io", 1); v2.Err == nil || v2.Allowed != 0 {
		t.Fatalf("post-limit write: %+v", v2)
	}
}

func TestSilentTruncateOneShot(t *testing.T) {
	defer DisarmAll()
	Arm("io", SilentTruncate(8))
	v := HitBytes("io", 64)
	if v.Err != nil || !v.SilentTear || v.Allowed != 8 {
		t.Fatalf("first write: %+v", v)
	}
	if v2 := HitBytes("io", 64); v2.SilentTear || v2.Err != nil || v2.Allowed != 64 {
		t.Fatalf("silent truncate fired twice: %+v", v2)
	}
}

func TestKillUsesExitFunc(t *testing.T) {
	defer DisarmAll()
	var code int
	mu.Lock()
	restore := exitFunc
	exitFunc = func(c int) { code = c }
	mu.Unlock()
	defer func() {
		mu.Lock()
		exitFunc = restore
		mu.Unlock()
	}()
	Arm("crash", Kill())
	err := Hit("crash")
	if code != KillExitCode {
		t.Fatalf("exit code = %d, want %d", code, KillExitCode)
	}
	if err == nil {
		t.Fatal("suppressed kill must still fail the operation")
	}
}

func TestFailRandomDeterministicPerSeed(t *testing.T) {
	defer DisarmAll()
	pattern := func(seed int64) []bool {
		Arm("rng", FailRandom(seed, 0.5))
		out := make([]bool, 64)
		for i := range out {
			out[i] = Hit("rng") != nil
		}
		Disarm("rng")
		return out
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-call schedules")
	}
}

func TestCallbackRunsWithoutFailing(t *testing.T) {
	defer DisarmAll()
	ran := 0
	Arm("sync", Callback(func() { ran++ }))
	if err := Hit("sync"); err != nil {
		t.Fatalf("callback site failed: %v", err)
	}
	if ran != 1 {
		t.Fatalf("callback ran %d times", ran)
	}
}

func TestArmedSitesAndDisarm(t *testing.T) {
	defer DisarmAll()
	Arm("b", FailAlways())
	Arm("a", FailAlways())
	got := ArmedSites()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("ArmedSites = %v", got)
	}
	Disarm("a")
	if !enabled() {
		t.Fatal("one site still armed")
	}
	Disarm("b")
	if enabled() {
		t.Fatal("all sites disarmed but layer still enabled")
	}
}

func TestErrorsAsThroughDeepWrap(t *testing.T) {
	defer DisarmAll()
	Arm("deep", FailAlways())
	err := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", Hit("deep")))
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != "deep" {
		t.Fatalf("typed fault lost through wrapping: %v", err)
	}
}

func TestConcurrentHits(t *testing.T) {
	defer DisarmAll()
	Arm("hot", FailEveryKth(10))
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < 100; i++ {
				if Hit("hot") != nil {
					local++
				}
			}
			mu.Lock()
			fails += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if n := calls("hot"); n != 800 || fails != 80 {
		t.Fatalf("calls=%d fails=%d, want 800/80", n, fails)
	}
}
