package featurestore

import (
	"os"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/faultinject/crashtest"
)

// Crash-consistency tests for Open recovery. Each scenario seeds entry A
// durably, arms faultinject policies around a later Put, and lets the
// re-exec'd helper process die mid-operation — no deferred cleanup, like a
// real kill -9. The parent then reopens the directory and asserts the
// recovery invariants.

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
	// Entry A is durable before any fault arms: its Put renamed the file.
	if err := s.Put(testKey(1, Feature), featRows(1, 8, 4)); err != nil {
		t.Fatalf("seed Put: %v", err)
	}
	next := testKey(2, Feature) // entry B
	switch scenario {
	case "kill-entry-rename":
		// Die between B's temp-file write and its rename: B's complete bytes
		// are stranded in a temp file and its final name never appears.
		faultinject.Arm(FaultEntryWrite+".rename", faultinject.Kill())
	case "kill-after-torn-entry":
		// Tear B silently (the temp write "succeeds" short and the rename
		// lands the torn bytes under B's name), then die in the next Put, C's.
		faultinject.Arm(FaultEntryWrite+".write", faultinject.SilentTruncate(8))
		if err := s.Put(next, featRows(2, 8, 4)); err != nil {
			t.Fatalf("silently torn Put reported %v", err)
		}
		faultinject.Arm(FaultEntryWrite+".create", faultinject.Kill())
		next = testKey(3, Feature)
	default:
		t.Fatalf("unknown crash scenario %q", scenario)
	}
	err = s.Put(next, featRows(next.LayerIndex, 8, 4))
	t.Fatalf("scenario %s did not kill the process (Put err=%v)", scenario, err)
}

// assertStoreClean asserts the directory invariants every recovery must
// restore: Fsck passes, no stranded atomic-write temp files, and the store
// charges exactly the entry files on disk.
func assertStoreClean(t *testing.T, s *Store, dir string) {
	t.Helper()
	if err := s.Fsck(); err != nil {
		t.Error(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entryFiles := 0
	for _, de := range des {
		if strings.HasPrefix(de.Name(), durable.TmpPrefix) {
			t.Errorf("stranded temp file after recovery: %s", de.Name())
		}
		if strings.HasSuffix(de.Name(), entrySuffix) {
			entryFiles++
		}
	}
	st := s.Snapshot()
	if st.Entries != entryFiles {
		t.Errorf("store tracks %d entries, disk has %d files", st.Entries, entryFiles)
	}
	if du := diskUsage(t, dir); st.UsedBytes != du {
		t.Errorf("store charges %d bytes, disk holds %d", st.UsedBytes, du)
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

func TestCrashAtEntryRename(t *testing.T) {
	s, dir := runCrashScenario(t, "kill-entry-rename")
	if s.Contains(testKey(2, Feature)) {
		t.Error("entry B visible despite its unrenamed temp file")
	}
	if _, ok, err := s.Get(testKey(1, Feature)); err != nil || !ok {
		t.Errorf("entry A unreadable after recovery: ok=%v err=%v", ok, err)
	}
	assertStoreClean(t, s, dir)
}

func TestCrashAfterSilentTornEntry(t *testing.T) {
	s, dir := runCrashScenario(t, "kill-after-torn-entry")
	torn := testKey(2, Feature)
	if s.Contains(testKey(3, Feature)) {
		t.Error("entry C visible although its Put died before writing")
	}
	// Open does not read entries, so the torn one is charged what it holds.
	fi, err := os.Stat(s.entryPath(torn.id()))
	if err != nil {
		t.Fatalf("torn entry file: %v", err)
	}
	if fi.Size() != 8 || !s.Contains(torn) {
		t.Fatalf("torn entry: %d bytes on disk, present=%v; want 8 bytes, present", fi.Size(), s.Contains(torn))
	}
	assertStoreClean(t, s, dir)
	// Its first Get fails to decode: a miss that drops it, never garbage.
	if rows, ok, err := s.Get(torn); err != nil || ok || rows != nil {
		t.Errorf("Get of torn entry: rows=%d ok=%v err=%v, want a miss", len(rows), ok, err)
	}
	if s.Contains(torn) {
		t.Error("torn entry not dropped by its failed Get")
	}
	if _, ok, err := s.Get(testKey(1, Feature)); err != nil || !ok {
		t.Errorf("entry A unreadable after recovery: ok=%v err=%v", ok, err)
	}
	assertStoreClean(t, s, dir)
}
