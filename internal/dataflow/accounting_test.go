package dataflow

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/memory"
)

// brokenSpillDir returns a path that exists but is not a directory, so every
// spill write fails with ENOTDIR — a disk-failure injection that works even
// when tests run as root (permission bits would not).
func brokenSpillDir(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEvictSpillFailureFreesCharge is the regression test for the
// Storage-pool leak: when eviction's spill write fails, the partition leaves
// the cache, so its charge must leave the pool with it. Pre-fix, the charge
// leaked (evict returned 0 bytes released), which both failed this
// CreateTable with a spurious StorageExhausted and left the pool non-zero
// after all tables were dropped.
func TestEvictSpillFailureFreesCharge(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = memory.MB(0.5)
	cfg.SpillDir = brokenSpillDir(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Far more rows than 0.5 MB of Storage holds: caching forces evictions,
	// and every eviction's spill fails.
	tb, err := e.CreateTable("big", makeRows(5000, 100), 8)
	if err != nil {
		t.Fatalf("CreateTable with failing spills crashed: %v (leaked charges "+
			"starve the pool)", err)
	}
	if e.Counters().Spills.Load() != 0 {
		t.Error("failed spills were counted as spills")
	}
	if used := storageUsed(e); used <= 0 {
		t.Fatalf("expected live cached bytes, got %d", used)
	}
	tb.Drop()
	if used := storageUsed(e); used != 0 {
		t.Fatalf("storage pool leaks %d bytes after dropping every table", used)
	}
}

// TestUnspillChargeFailureKeepsAccountingExact is the regression test for the
// touch/unspill leak: unspill materializes rows before the pool charge, and a
// failed charge must not leave those rows resident, unaccounted, and outside
// the LRU index. The fix re-spills the partition (or discards it when the
// disk is also failing).
func TestUnspillChargeFailureKeepsAccountingExact(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = 4 << 10 // 4 KB: far below the partition's rows
	e := newTestEngine(t, cfg)
	sc := e.nodes[0].storage

	p := newPartition(0, makeRows(200, 100))
	e.mu.Lock()
	dir, err := e.spillDirLocked()
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.spill(dir); err != nil {
		t.Fatal(err)
	}

	_, err = sc.touch(p)
	if err == nil {
		t.Fatal("touch succeeded with a 4 KB storage pool")
	}
	if _, ok := memory.IsOOM(err); !ok {
		t.Fatalf("touch error = %v, want an OOM", err)
	}
	if !p.Spilled() {
		t.Error("charge-failed partition left resident in memory (untracked by the memory model)")
	}
	if got := p.MemBytes(); got != 0 {
		t.Errorf("charge-failed partition carries %d mem bytes", got)
	}
	if used := sc.pool.Used(); used != 0 {
		t.Errorf("storage pool reports %d bytes with nothing cached", used)
	}
	if _, ok := sc.cached.Peek(p.id); ok {
		t.Error("charge-failed partition present in the LRU index")
	}

	// The partition must still be readable: the re-spill preserved its rows.
	rows, err := p.Rows()
	if err != nil {
		t.Fatalf("re-spilled partition unreadable: %v", err)
	}
	if len(rows) != 200 {
		t.Fatalf("re-spilled partition has %d rows, want 200", len(rows))
	}
}

// TestUnspillChargeFailureWithBrokenDiskDiscards covers the double-failure
// path: the pool refuses the charge and the re-spill write also fails. The
// partition must be discarded — zero charge, zero resident bytes — rather
// than linger unaccounted.
func TestUnspillChargeFailureWithBrokenDiskDiscards(t *testing.T) {
	goodDir := t.TempDir()
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = 4 << 10
	cfg.SpillDir = brokenSpillDir(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sc := e.nodes[0].storage

	// Spill to a working directory first; the engine's own spill dir (used
	// by the recovery re-spill) is the broken one.
	p := newPartition(0, makeRows(200, 100))
	if _, err := p.spill(goodDir); err != nil {
		t.Fatal(err)
	}

	if _, err := sc.touch(p); err == nil {
		t.Fatal("touch succeeded with a 4 KB storage pool")
	}
	if got := p.MemBytes(); got != 0 {
		t.Errorf("discarded partition carries %d mem bytes", got)
	}
	if used := sc.pool.Used(); used != 0 {
		t.Errorf("storage pool reports %d bytes with nothing cached", used)
	}
}
