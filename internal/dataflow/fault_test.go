package dataflow

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memory"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sites := faultinject.ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// spilledEngine builds a 1-node engine whose storage budget is too small for
// the table, guaranteeing spilled partitions to exercise the unspill paths.
func spilledEngine(t *testing.T) (*Engine, *Table, string) {
	t.Helper()
	spillDir := t.TempDir()
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = memory.MB(0.5)
	cfg.SpillDir = spillDir
	e := newTestEngine(t, cfg)
	tb, err := e.CreateTable("big", makeRows(5000, 100), 8)
	if err != nil {
		t.Fatal(err)
	}
	if e.Counters().Spills.Load() == 0 {
		t.Fatal("table too small: nothing spilled")
	}
	return e, tb, spillDir
}

func spilledPartition(t *testing.T, tb *Table) *Partition {
	t.Helper()
	for _, p := range tb.partitions {
		if p.Spilled() {
			return p
		}
	}
	t.Fatal("no spilled partition found")
	return nil
}

// Regression: when touch unspills a partition but the pool refuses the
// re-admission charge, the recovery re-spill used to write the file directly
// — a real disk write invisible to Spills/BytesSpilled, so instrumentation
// (and the simulator's spill-volume comparison) drifted from reality.
func TestTouchRespillCountsSpill(t *testing.T) {
	defer faultinject.DisarmAll()
	e, tb, _ := spilledEngine(t)
	p := spilledPartition(t, tb)

	spillsBefore := e.Counters().Spills.Load()
	bytesBefore := e.Counters().BytesSpilled.Load()

	faultinject.Arm(FaultUnspillAdmit, faultinject.FailNth(1))
	_, err := e.nodeFor(p.index).storage.touch(p)
	faultinject.DisarmAll()
	if err == nil {
		t.Fatal("touch with injected admission failure succeeded")
	}
	if _, ok := faultinject.AsFault(err); !ok {
		t.Fatalf("error lost the typed fault: %v", err)
	}
	if !p.Spilled() {
		t.Fatal("partition not re-spilled after refused admission")
	}
	if got := e.Counters().Spills.Load(); got != spillsBefore+1 {
		t.Fatalf("recovery re-spill not counted: Spills %d -> %d", spillsBefore, got)
	}
	if got := e.Counters().BytesSpilled.Load(); got <= bytesBefore {
		t.Fatalf("recovery re-spill bytes not counted: BytesSpilled %d -> %d", bytesBefore, got)
	}
	// The re-spilled partition must still be readable.
	if _, err := e.nodeFor(p.index).storage.touch(p); err != nil {
		t.Fatalf("partition unreadable after recovery re-spill: %v", err)
	}
}

// A torn spill write (disk filling up mid-eviction) must not leave a partial
// spill file behind, and the rows must stay readable from memory.
func TestTornSpillWriteLeavesNoOrphan(t *testing.T) {
	defer faultinject.DisarmAll()
	spillDir := t.TempDir()
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = memory.MB(0.5)
	cfg.SpillDir = spillDir
	e := newTestEngine(t, cfg)

	faultinject.Arm(FaultSpillWrite, faultinject.FailAfterBytes(64))
	tb, err := e.CreateTable("big", makeRows(5000, 100), 8)
	faultinject.DisarmAll()
	if err != nil {
		t.Fatalf("CreateTable: %v", err) // eviction tolerates disk trouble
	}
	// The torn write's path must have been cleaned up: every file in the
	// spill dir must decode (belong to a successfully spilled partition).
	for _, p := range tb.partitions {
		if _, err := p.Rows(); err != nil {
			t.Fatalf("partition %d unreadable after torn spill: %v", p.index, err)
		}
	}
	if _, err := e.Collect(tb); err != nil {
		t.Fatalf("Collect after torn spill: %v", err)
	}
}

// A silently torn spill file (no write error, short payload — a no-fsync
// kill) must surface at unspill as the typed corruption error, never as a
// panic or silent row loss.
func TestSilentlyTornSpillSurfacesCorruptRow(t *testing.T) {
	defer faultinject.DisarmAll()
	spillDir := t.TempDir()
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = memory.MB(0.5)
	cfg.SpillDir = spillDir
	e := newTestEngine(t, cfg)

	faultinject.Arm(FaultSpillWrite, faultinject.SilentTruncate(10))
	tb, err := e.CreateTable("big", makeRows(5000, 100), 8)
	faultinject.DisarmAll()
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	found := false
	for _, p := range tb.partitions {
		if !p.Spilled() {
			continue
		}
		if _, err := e.nodeFor(p.index).storage.touch(p); err != nil {
			if !errors.Is(err, ErrCorruptRow) {
				t.Fatalf("torn spill surfaced untyped error: %v", err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("silently torn spill file never surfaced ErrCorruptRow")
	}
}

// An injected read failure during unspill must surface as a typed fault.
func TestUnspillReadFaultSurfaces(t *testing.T) {
	defer faultinject.DisarmAll()
	e, tb, _ := spilledEngine(t)
	p := spilledPartition(t, tb)
	faultinject.Arm(FaultUnspillRead, faultinject.FailNth(1))
	_, err := e.nodeFor(p.index).storage.touch(p)
	faultinject.DisarmAll()
	if err == nil {
		t.Fatal("touch with injected read failure succeeded")
	}
	if _, ok := faultinject.AsFault(err); !ok {
		t.Fatalf("error lost the typed fault: %v", err)
	}
	// The fault is transient: the spill file is intact, so a retry succeeds.
	if _, err := e.nodeFor(p.index).storage.touch(p); err != nil {
		t.Fatalf("retry after transient read fault failed: %v", err)
	}
}

// Close must remove spill files the engine wrote into a caller-provided
// SpillDir — including files stranded by error paths — without deleting the
// directory itself.
func TestCloseRemovesSpillFilesFromSharedDir(t *testing.T) {
	e, _, spillDir := spilledEngine(t)
	des, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) == 0 {
		t.Fatal("expected spill files before Close")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	des, err = os.ReadDir(spillDir)
	if err != nil {
		t.Fatalf("caller-provided spill dir deleted by Close: %v", err)
	}
	if len(des) != 0 {
		t.Fatalf("Close left %d spill files in shared dir", len(des))
	}
}

// TestOwnSpillDirIsLazy covers an engine without a configured SpillDir: a
// run that never spills creates no directory at all, and one that spills
// makes its own directory at the first spill, and Close removes its spill
// files and that directory.
func TestOwnSpillDirIsLazy(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	entries := func() []os.DirEntry {
		t.Helper()
		des, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		return des
	}

	cfg := testConfig()
	cfg.Nodes = 1
	quiet, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := quiet.CreateTable("small", makeRows(100, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Collect(tb); err != nil {
		t.Fatal(err)
	}
	if quiet.Counters().Spills.Load() != 0 {
		t.Fatal("the small table spilled")
	}
	if des := entries(); len(des) != 0 {
		t.Fatalf("a run that never spilled created %s", des[0].Name())
	}
	if err := quiet.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cfg.Apportion.Storage = memory.MB(0.5)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err = e.CreateTable("big", makeRows(5000, 100), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Collect(tb); err != nil {
		t.Fatal(err)
	}
	if e.Counters().Spills.Load() == 0 {
		t.Fatal("table too small: nothing spilled")
	}
	des := entries()
	if len(des) != 1 || !des[0].IsDir() {
		t.Fatalf("spilling engine made %d entries in TMPDIR, want its one directory", len(des))
	}
	if files, err := os.ReadDir(filepath.Join(tmp, des[0].Name())); err != nil || len(files) == 0 {
		t.Fatalf("spill directory holds %d files (%v), want the spilled partitions", len(files), err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if des := entries(); len(des) != 0 {
		t.Fatalf("Close left %s behind", des[0].Name())
	}
}
