package featurestore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/faultinject/crashtest"
)

// Crash-consistency tests for Open recovery. Each scenario seeds entry A
// durably, arms a one-shot Kill failpoint somewhere inside the Put of entry
// B, and lets the re-exec'd helper process die mid-operation — no deferred
// cleanup, like a real kill -9. The parent then reopens the directory and
// asserts the recovery invariants.

// TestCrashHelper is the body run in the re-exec'd child. It must never
// return normally: every scenario ends in faultinject killing the process.
func TestCrashHelper(t *testing.T) {
	scenario := crashtest.Scenario()
	if scenario == "" {
		t.Skip("not a crash helper process")
	}
	s, err := Open(crashtest.Dir(), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Entry A is durable before the fault arms: entry file and index both on
	// disk (Put persists the index synchronously).
	if err := s.Put(testKey(1, Feature), featRows(1, 8, 4)); err != nil {
		t.Fatalf("seed Put: %v", err)
	}
	switch scenario {
	case "kill-entry-written":
		// Die between the entry-file write and the index persist: entry B's
		// file exists but no index record points at it.
		faultinject.Arm(FaultPutEntryWritten, faultinject.Kill())
	case "kill-index-rename":
		// Die between the index temp-file write and its rename: entry B's
		// file exists, the old index is still in place, and a stale .tmp-
		// file is stranded.
		faultinject.Arm(FaultIndexWrite+".rename", faultinject.Kill())
	case "kill-truncated-index":
		// Tear the index payload silently (the tmp write "succeeds" short,
		// the rename lands the torn bytes), then die: index.vfs on disk is
		// truncated mid-record and fails its CRC on reload.
		faultinject.Arm(FaultIndexWrite+".write", faultinject.SilentTruncate(8))
		faultinject.Arm(FaultPutIndexPersisted, faultinject.Kill())
	default:
		t.Fatalf("unknown crash scenario %q", scenario)
	}
	err = s.Put(testKey(2, Feature), featRows(2, 8, 4))
	t.Fatalf("scenario %s did not kill the process (Put err=%v)", scenario, err)
}

// assertStoreClean asserts the directory invariants every recovery must
// restore: no stranded atomic-write temp files, no entry file the index does
// not account for, and index-vs-disk size agreement.
func assertStoreClean(t *testing.T, s *Store, dir string) {
	t.Helper()
	if err := s.Fsck(); err != nil {
		t.Error(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var entryBytes int64
	entryFiles := 0
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, durable.TmpPrefix) {
			t.Errorf("stranded temp file after recovery: %s", name)
		}
		if strings.HasSuffix(name, entrySuffix) {
			entryFiles++
			fi, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			entryBytes += fi.Size()
			id := strings.TrimSuffix(name, entrySuffix)
			if _, ok := s.entries.Peek(id); !ok {
				t.Errorf("orphan entry file after recovery: %s", name)
			}
		}
	}
	st := s.Snapshot()
	if st.Entries != entryFiles {
		t.Errorf("index tracks %d entries, disk has %d files", st.Entries, entryFiles)
	}
	if st.UsedBytes != entryBytes {
		t.Errorf("index charges %d bytes, disk holds %d", st.UsedBytes, entryBytes)
	}
	// The persisted index must itself be decodable.
	blob, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		t.Fatalf("reading recovered index: %v", err)
	}
	if _, err := DecodeIndex(blob); err != nil {
		t.Fatalf("recovered index undecodable: %v", err)
	}
}

func runCrashScenario(t *testing.T, scenario string) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	crashtest.Run(t, "TestCrashHelper", scenario, dir)
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	return s, dir
}

func TestCrashBetweenEntryWriteAndIndexPersist(t *testing.T) {
	s, dir := runCrashScenario(t, "kill-entry-written")
	if !s.Contains(testKey(1, Feature)) {
		t.Error("durable entry A lost")
	}
	if s.Contains(testKey(2, Feature)) {
		t.Error("half-written entry B resurrected")
	}
	if _, ok, err := s.Get(testKey(1, Feature)); err != nil || !ok {
		t.Errorf("entry A unreadable after recovery: ok=%v err=%v", ok, err)
	}
	assertStoreClean(t, s, dir)
}

func TestCrashBetweenIndexPersistAndRename(t *testing.T) {
	s, dir := runCrashScenario(t, "kill-index-rename")
	if !s.Contains(testKey(1, Feature)) {
		t.Error("durable entry A lost")
	}
	if s.Contains(testKey(2, Feature)) {
		t.Error("entry B visible despite unrenamed index")
	}
	if _, ok, err := s.Get(testKey(1, Feature)); err != nil || !ok {
		t.Errorf("entry A unreadable after recovery: ok=%v err=%v", ok, err)
	}
	assertStoreClean(t, s, dir)
}

func TestCrashWithTruncatedIndex(t *testing.T) {
	s, dir := runCrashScenario(t, "kill-truncated-index")
	// A torn index cannot attribute entry files to keys; recovery is a cold
	// start — empty but fully functional.
	if st := s.Snapshot(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Errorf("cold recovery not empty: %+v", st)
	}
	assertStoreClean(t, s, dir)
	k := testKey(3, Feature)
	v := featRows(3, 8, 4)
	if err := s.Put(k, v); err != nil {
		t.Fatalf("recovered store rejects Put: %v", err)
	}
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("recovered store rejects Get: ok=%v err=%v", ok, err)
	}
}
