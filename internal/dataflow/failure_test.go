package dataflow

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

// TestSpillFileLossSurfacesError injects a disk failure: spill files are
// deleted behind the engine's back, and reading the table must return an
// error — never a panic or silent data loss.
func TestSpillFileLossSurfacesError(t *testing.T) {
	spillDir := t.TempDir()
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = memory.MB(0.5)
	cfg.SpillDir = spillDir
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tb, err := e.CreateTable("big", makeRows(5000, 100), 8)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("expected spill files on disk")
	}
	for _, entry := range entries {
		if err := os.Remove(filepath.Join(spillDir, entry.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Collect(tb); err == nil {
		t.Fatal("collect over lost spill files succeeded")
	}
}

// TestConcurrentTableOperations exercises parallel map/aggregate on shared
// tables for race-freedom (run with -race in CI).
func TestConcurrentTableOperations(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(400, 10), 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			out, err := e.MapPartitions("m", tb, func(_ *TaskContext, in []Row) ([]Row, error) {
				return in, nil
			})
			if err != nil {
				errs <- err
				return
			}
			out.Drop()
		}()
		go func() {
			defer wg.Done()
			if err := e.ForEachPartition(tb, func(_ *TaskContext, rows []Row) error {
				return nil
			}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent op failed: %v", err)
	}
	n := numRows(t, tb)
	if n != 400 {
		t.Errorf("table corrupted: %d rows", n)
	}
}

// Property: for random key sets, shuffle and broadcast joins agree exactly
// with a reference nested-loop join on the matched ID set.
func TestJoinEquivalenceProperty(t *testing.T) {
	e := newTestEngine(t, testConfig())
	f := func(leftSeed, rightSeed uint8) bool {
		nl := int(leftSeed%20) + 1
		nr := int(rightSeed%20) + 1
		leftRows := make([]Row, nl)
		for i := range leftRows {
			leftRows[i] = Row{ID: int64(i * int(leftSeed%3+1)), Structured: []float32{1}}
		}
		rightRows := make([]Row, nr)
		for i := range rightRows {
			rightRows[i] = Row{ID: int64(i * int(rightSeed%4+1)), Image: []byte{1}}
		}
		want := map[int64]bool{}
		seenL := map[int64]bool{}
		for _, l := range leftRows {
			seenL[l.ID] = true
		}
		seenR := map[int64]bool{}
		for _, r := range rightRows {
			if seenR[r.ID] {
				continue
			}
			seenR[r.ID] = true
			if seenL[r.ID] {
				want[r.ID] = true
			}
		}
		lt, err := e.CreateTable("l", dedupeByID(leftRows), 3)
		if err != nil {
			return false
		}
		defer lt.Drop()
		for _, kind := range []JoinKind{ShuffleJoin, BroadcastJoin} {
			rt, err := e.CreateTable("r", dedupeByID(rightRows), 5) // Join consumes it
			if err != nil {
				return false
			}
			out, err := e.Join("j", lt, rt, kind)
			if err != nil {
				return false
			}
			rows, err := e.Collect(out)
			out.Drop()
			if err != nil {
				return false
			}
			if len(rows) != len(want) {
				return false
			}
			for _, r := range rows {
				if !want[r.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func dedupeByID(rows []Row) []Row {
	seen := map[int64]bool{}
	out := rows[:0:0]
	for _, r := range rows {
		if !seen[r.ID] {
			seen[r.ID] = true
			out = append(out, r)
		}
	}
	return out
}
