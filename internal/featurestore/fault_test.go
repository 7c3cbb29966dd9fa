package featurestore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/durable"
	"repro/internal/faultinject"
)

func TestMain(m *testing.M) {
	code := m.Run()
	// CI contract: a test that arms a failpoint must disarm it; anything
	// left armed would silently poison unrelated tests.
	if sites := faultinject.ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// rowsEqual compares two feature tables via the canonical encoding.
func rowsEqual(t *testing.T, a, b []dataflow.Row) bool {
	t.Helper()
	ea, err := dataflow.EncodeRows(a)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	eb, err := dataflow.EncodeRows(b)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	return string(ea) == string(eb)
}

// Regression: a Put replacing an existing key used to drop the old entry
// (including its file) before writing the new blob, so a failed write
// destroyed the cached features and left the key absent. The new entry must
// be written first; a failed write leaves the old features intact.
func TestPutReplaceFailureKeepsOldEntry(t *testing.T) {
	defer faultinject.DisarmAll()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(1, Feature)
	v1 := featRows(1, 8, 4)
	if err := s.Put(k, v1); err != nil {
		t.Fatalf("Put v1: %v", err)
	}

	faultinject.Arm(FaultEntryWrite+".write", faultinject.FailNth(1))
	if err := s.Put(k, featRows(2, 8, 4)); err == nil {
		t.Fatal("Put with injected write failure succeeded")
	}
	faultinject.DisarmAll()

	got, ok, err := s.Get(k)
	if err != nil {
		t.Fatalf("Get after failed replace: %v", err)
	}
	if !ok {
		t.Fatal("failed replace destroyed the existing entry (key absent)")
	}
	if !rowsEqual(t, got, v1) {
		t.Fatal("failed replace corrupted the existing entry's contents")
	}
}

// Regression: Get used to hold the store mutex across the entry-file read and
// decode, serializing every concurrent request against one large entry. The
// Callback policy turns the read site into a sync point: while the read is in
// flight, another goroutine must be able to take the store lock.
func TestGetDoesNotHoldLockAcrossRead(t *testing.T) {
	defer faultinject.DisarmAll()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(3, Feature)
	if err := s.Put(k, featRows(4, 64, 16)); err != nil {
		t.Fatalf("Put: %v", err)
	}

	blocked := false
	faultinject.Arm(FaultEntryRead, faultinject.Callback(func() {
		done := make(chan struct{})
		go func() {
			s.Contains(k) // takes s.mu
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			blocked = true
		}
	}))
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	faultinject.DisarmAll()
	if blocked {
		t.Fatal("Get holds the store lock across the entry-file read")
	}
}

// An entry whose read fails must be dropped and reported as a miss — and the
// drop must not fire when the entry was already replaced while the (failed)
// read was in flight.
func TestGetReadFailureDropsEntry(t *testing.T) {
	defer faultinject.DisarmAll()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(4, Feature)
	if err := s.Put(k, featRows(5, 8, 4)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	faultinject.Arm(FaultEntryRead, faultinject.FailNth(1))
	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("Get with injected read failure: ok=%v err=%v (want miss, nil)", ok, err)
	}
	faultinject.DisarmAll()
	if s.Contains(k) {
		t.Fatal("unreadable entry not dropped")
	}
	if st := s.Snapshot(); st.UsedBytes != 0 {
		t.Fatalf("dropped entry left %d bytes charged", st.UsedBytes)
	}
}

// A torn entry write (disk full / dying disk) must not leave temp files
// behind, and the store must remain fully usable.
func TestTornEntryWriteLeavesNoTempFiles(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	faultinject.Arm(FaultEntryWrite+".write", faultinject.FailAfterBytes(10))
	err = s.Put(testKey(6, Feature), featRows(7, 32, 8))
	faultinject.DisarmAll()
	if err == nil {
		t.Fatal("torn write reported success")
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.HasPrefix(de.Name(), durable.TmpPrefix) {
			t.Fatalf("torn write stranded temp file %s", filepath.Join(dir, de.Name()))
		}
	}
	if err := s.Put(testKey(6, Feature), featRows(7, 32, 8)); err != nil {
		t.Fatalf("store unusable after torn write: %v", err)
	}
}
