package dataflow

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/memory"
)

// imageRows returns n rows carrying an image payload of imgBytes each, keyed
// 0..n-1 like makeRows.
func imageRows(n, imgBytes int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{ID: int64(i), Image: make([]byte, imgBytes)}
	}
	return rows
}

// assertOnlyLeftHeld checks that the engine holds left's storage charge
// (plus extra, the join's output when it succeeded) and nothing else: every
// other pool is empty and every file in the spill directory is one of left's.
func assertOnlyLeftHeld(t *testing.T, e *Engine, left *Table, extra int64) {
	t.Helper()
	if got, want := storageUsed(e), left.MemBytes()+extra; got != want {
		t.Errorf("storage holds %d bytes, want %d (left's charge + output)", got, want)
	}
	for _, n := range e.nodes {
		if n.user.Used() != 0 || n.core.Used() != 0 || n.dl.Used() != 0 {
			t.Errorf("node %d pools not drained: user %d core %d dl %d",
				n.id, n.user.Used(), n.core.Used(), n.dl.Used())
		}
	}
	if used := e.DriverPool().Used(); used != 0 {
		t.Errorf("driver pool holds %d bytes", used)
	}
	leftFiles := map[string]bool{}
	for _, p := range left.partitions {
		if path := p.SpillPath(); path != "" {
			leftFiles[path] = true
		}
	}
	entries, err := os.ReadDir(e.spillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if path := filepath.Join(e.spillDir, ent.Name()); !leftFiles[path] {
			t.Errorf("spill file %s left behind", ent.Name())
		}
	}
}

// TestJoinConsumesRight pins Join's ownership contract on every path: right
// holds no storage once Join returns, storage holds left plus the output,
// and because each task drops the right partition it read before caching its
// output, the join's peak stays below left + right + output — the three
// copies the engine held when callers dropped right only after Join.
func TestJoinConsumesRight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    JoinKind
		rightNP int
	}{
		{"shuffle", ShuffleJoin, 4},
		{"shuffle-repartition", ShuffleJoin, 7},
		{"broadcast", BroadcastJoin, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, testConfig())
			left, err := e.CreateTable("str", makeRows(200, 3), 4)
			if err != nil {
				t.Fatal(err)
			}
			right, err := e.CreateTable("img", imageRows(200, 2000), tc.rightNP)
			if err != nil {
				t.Fatal(err)
			}
			leftBytes, rightBytes := left.MemBytes(), right.MemBytes()
			out, err := e.Join("j", left, right, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if n := numRows(t, out); n != 200 {
				t.Fatalf("joined %d rows, want 200", n)
			}
			if right.MemBytes() != 0 || right.NumPartitions() != 0 {
				t.Errorf("right still holds %d bytes in %d partitions", right.MemBytes(), right.NumPartitions())
			}
			outBytes := out.MemBytes()
			assertOnlyLeftHeld(t, e, left, outBytes)
			if peak, all := e.Counters().PeakStorageBytes.Load(), leftBytes+rightBytes+outBytes; peak >= all {
				t.Errorf("join peak storage %d, want below left + right + output = %d", peak, all)
			}
			out.Drop()
			left.Drop()
			if used := storageUsed(e); used != 0 {
				t.Errorf("storage holds %d bytes after dropping left and output", used)
			}
		})
	}
}

// TestFailedJoinReleasesRight fails a join in its tasks (Core Memory refuses
// the hash build) and before them (User Memory refuses the broadcast), with
// part of right spilled: either way right's charges and spill files are
// gone, and only left's charge remains.
func TestFailedJoinReleasesRight(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   JoinKind
		tweak  func(*memory.Apportionment)
		leftFn func() []Row
	}{
		{"shuffle-core-refusal", ShuffleJoin,
			func(a *memory.Apportionment) { a.Core = 16 },
			func() []Row { return makeRows(40, 3) }},
		{"broadcast-user-refusal", BroadcastJoin,
			func(a *memory.Apportionment) { a.User = memory.MB(0.25) },
			func() []Row { return makeRows(2000, 100) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Nodes = 1
			// 1 MB holds only part of the two tables: creating right spills
			// the oldest partitions, and the join's reads unspill them.
			cfg.Apportion.Storage = memory.MB(1)
			tc.tweak(&cfg.Apportion)
			e := newTestEngine(t, cfg)
			left, err := e.CreateTable("str", tc.leftFn(), 4)
			if err != nil {
				t.Fatal(err)
			}
			right, err := e.CreateTable("img", imageRows(40, 40000), 4)
			if err != nil {
				t.Fatal(err)
			}
			if e.Counters().Spills.Load() == 0 {
				t.Fatal("fixture spilled nothing; the spill-file check would be vacuous")
			}
			_, err = e.Join("j", left, right, tc.kind)
			if _, ok := memory.IsOOM(err); !ok {
				t.Fatalf("want a modeled OOM, got %v", err)
			}
			if right.NumPartitions() != 0 {
				t.Error("a failed join left right's partitions in place")
			}
			assertOnlyLeftHeld(t, e, left, 0)
		})
	}
}
