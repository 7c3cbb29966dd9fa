package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// at returns a fixed base time plus d, for deterministic span trees.
func at(d time.Duration) time.Time {
	return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(d)
}

func TestSpanTree(t *testing.T) {
	root := StartSpanAt("run", at(0))
	ingest := root.StartChildAt("ingest", at(0))
	ingest.SetAttr("rows", 2000)
	ingest.EndAt(at(10 * time.Millisecond))
	infer := root.StartChildAt("infer:fc6", at(10*time.Millisecond))
	infer.EndAt(at(40 * time.Millisecond))
	root.EndAt(at(50 * time.Millisecond))

	if d := root.Duration(); d != 50*time.Millisecond {
		t.Errorf("root duration = %v", d)
	}
	if d := root.SelfTime(); d != 10*time.Millisecond {
		t.Errorf("root self-time = %v, want 10ms", d)
	}
	if got := len(root.Children()); got != 2 {
		t.Fatalf("children = %d", got)
	}
	if v, ok := ingest.Attr("rows"); !ok || v != 2000 {
		t.Errorf("rows attr = %d/%v", v, ok)
	}

	var names []string
	var depths []int
	root.Walk(func(sp *Span, depth int) {
		names = append(names, sp.Name())
		depths = append(depths, depth)
	})
	if strings.Join(names, ",") != "run,ingest,infer:fc6" {
		t.Errorf("walk order = %v", names)
	}
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 1 {
		t.Errorf("walk depths = %v", depths)
	}
}

func TestSpanRenderGolden(t *testing.T) {
	root := StartSpanAt("run", at(0))
	ingest := root.StartChildAt("ingest", at(0))
	ingest.SetAttr("rows", 2000)
	ingest.EndAt(at(10 * time.Millisecond))
	infer := root.StartChildAt("infer:fc6", at(10*time.Millisecond))
	infer.SetAttr("flops", 1234)
	infer.EndAt(at(40 * time.Millisecond))
	root.EndAt(at(50 * time.Millisecond))

	var b strings.Builder
	root.Render(&b)
	want := "" +
		"run               50ms  (self 10ms)\n" +
		"  ingest          10ms  rows=2000\n" +
		"  infer:fc6       30ms  flops=1234\n"
	if b.String() != want {
		t.Errorf("render mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestSpanSelfTimeFloor: overlapping parallel children can exceed the parent
// duration; self-time must floor at zero.
func TestSpanSelfTimeFloor(t *testing.T) {
	root := StartSpanAt("par", at(0))
	for i := 0; i < 3; i++ {
		c := root.StartChildAt("task", at(0))
		c.EndAt(at(40 * time.Millisecond))
	}
	root.EndAt(at(50 * time.Millisecond))
	if d := root.SelfTime(); d != 0 {
		t.Errorf("self-time = %v, want 0", d)
	}
}

// TestSpanAttrOverwrite verifies SetAttr replaces an existing key.
func TestSpanAttrOverwrite(t *testing.T) {
	s := StartSpan("x")
	s.SetAttr("rows", 1)
	s.SetAttr("rows", 2)
	s.End()
	if attrs := s.Attrs(); len(attrs) != 1 || attrs[0].Value != 2 {
		t.Errorf("attrs = %v", attrs)
	}
}

// TestSpanDoubleEnd verifies End is idempotent.
func TestSpanDoubleEnd(t *testing.T) {
	s := StartSpanAt("x", at(0))
	s.EndAt(at(time.Millisecond))
	s.EndAt(at(time.Hour))
	if d := s.Duration(); d != time.Millisecond {
		t.Errorf("duration = %v after double End", d)
	}
}

// TestSpanConcurrent opens children and sets attributes from many goroutines
// (race-detector coverage; parallel engine stages share one parent span).
func TestSpanConcurrent(t *testing.T) {
	root := StartSpan("run")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.StartChild("task")
				c.SetAttr("i", int64(i))
				c.End()
				_ = root.SelfTime()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 800 {
		t.Errorf("children = %d, want 800", got)
	}
}
