package featurestore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// featRows builds a small feature table whose float content is derived from
// seed, so distinct seeds give distinct (but similarly sized) payloads.
func featRows(seed int, n, dim int) []dataflow.Row {
	rows := make([]dataflow.Row, n)
	for i := range rows {
		vec := make([]float32, dim)
		for j := range vec {
			vec[j] = float32(seed*1000+i*dim+j) * 0.25
		}
		rows[i] = dataflow.Row{
			ID:       int64(i),
			Features: tensor.NewTensorList(tensor.MustFromSlice(vec, dim)),
		}
	}
	return rows
}

func testKey(layer int, kind EntryKind) Key {
	return Key{Model: "tiny-alexnet", WeightsSum: "w0", DataSum: "d0", LayerIndex: layer, Kind: kind}
}

func encodedSize(t *testing.T, rows []dataflow.Row) int64 {
	t.Helper()
	blob, err := dataflow.EncodeRows(rows)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	return int64(len(blob))
}

// diskUsage sums the sizes of all entry files in dir.
func diskUsage(t *testing.T, dir string) int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var total int64
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), entrySuffix) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			t.Fatalf("Info: %v", err)
		}
		total += fi.Size()
	}
	return total
}

func TestStoreRoundTripByteIdentical(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rows := featRows(1, 16, 8)
	k := testKey(3, Feature)
	if err := s.Put(k, rows); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	want, _ := dataflow.EncodeRows(rows)
	back, err := dataflow.EncodeRows(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(want, back) {
		t.Fatal("cached rows are not byte-identical to the originals")
	}
	st := s.Snapshot()
	if st.Hits != 1 || st.Misses != 0 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if _, ok, _ := s.Get(testKey(4, Feature)); ok {
		t.Fatal("unexpected hit for absent key")
	}
	if s.Snapshot().Misses != 1 {
		t.Fatalf("miss not counted: %+v", s.Snapshot())
	}
}

func TestStoreBudgetNeverExceeded(t *testing.T) {
	dir := t.TempDir()
	one := encodedSize(t, featRows(0, 32, 16))
	budget := one*3 + one/2 // room for ~3 entries
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Put(testKey(i, Feature), featRows(i, 32, 16)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		st := s.Snapshot()
		if st.UsedBytes > budget {
			t.Fatalf("after put %d: used %d exceeds budget %d", i, st.UsedBytes, budget)
		}
		if du := diskUsage(t, dir); du > budget {
			t.Fatalf("after put %d: disk usage %d exceeds budget %d", i, du, budget)
		}
	}
	st := s.Snapshot()
	if st.Evictions == 0 || st.EvictedBytes == 0 {
		t.Fatalf("expected evictions under a tight budget: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatal("store should retain the most recent entries")
	}
}

func TestStoreLRUKeepsTouchedEntry(t *testing.T) {
	sizes := make([]int64, 4)
	for i := range sizes {
		sizes[i] = encodedSize(t, featRows(i, 32, 16))
	}
	budget := sizes[0] + sizes[1] + sizes[2]
	s, err := Open(t.TempDir(), budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i, Feature), featRows(i, 32, 16)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Touch entry 0 so entry 1 becomes LRU.
	if _, ok, _ := s.Get(testKey(0, Feature)); !ok {
		t.Fatal("entry 0 should be cached")
	}
	if err := s.Put(testKey(3, Feature), featRows(3, 32, 16)); err != nil {
		t.Fatalf("Put 3: %v", err)
	}
	if !s.Contains(testKey(0, Feature)) {
		t.Fatal("recently used entry 0 was evicted")
	}
	if s.Contains(testKey(1, Feature)) {
		t.Fatal("LRU entry 1 survived eviction")
	}
	if !s.Contains(testKey(3, Feature)) {
		t.Fatal("new entry 3 missing")
	}
	if used := s.Snapshot().UsedBytes; used > budget {
		t.Fatalf("used %d exceeds budget %d", used, budget)
	}
}

func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rows := featRows(7, 8, 4)
	if err := s.Put(testKey(2, Feature), rows); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(testKey(2, RawCarry), featRows(8, 8, 4)); err != nil {
		t.Fatalf("Put raw: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := s2.Snapshot(); st.Entries != 2 {
		t.Fatalf("entries lost across restart: %+v", st)
	}
	got, ok, err := s2.Get(testKey(2, Feature))
	if err != nil || !ok {
		t.Fatalf("Get after restart: ok=%v err=%v", ok, err)
	}
	want, _ := dataflow.EncodeRows(rows)
	back, _ := dataflow.EncodeRows(got)
	if !bytes.Equal(want, back) {
		t.Fatal("restart changed cached bytes")
	}
}

// TestStoreRestartKeepsRecency: the entry files' mtimes carry recency across
// a restart, so after a reopen the entry evicted first is the one least
// recently used before Close — not the one put first, and not the one used
// last.
func TestStoreRestartKeepsRecency(t *testing.T) {
	sizes := make([]int64, 4)
	for i := range sizes {
		sizes[i] = encodedSize(t, featRows(i, 32, 16))
	}
	budget := sizes[0] + sizes[1] + sizes[2]
	dir := t.TempDir()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i, Feature), featRows(i, 32, 16)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Touch entry 0, so entry 1 is the least recently used.
	if _, ok, _ := s.Get(testKey(0, Feature)); !ok {
		t.Fatal("entry 0 should be cached")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, budget)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := s2.Snapshot(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("reopen under the same budget changed the store: %+v", st)
	}
	if err := s2.Put(testKey(3, Feature), featRows(3, 32, 16)); err != nil {
		t.Fatalf("Put 3: %v", err)
	}
	for i, want := range []bool{true, false, true, true} {
		if got := s2.Contains(testKey(i, Feature)); got != want {
			t.Errorf("after restart and one more Put: entry %d cached = %v, want %v", i, got, want)
		}
	}
}

// TestPutDedupSkipsIdenticalContent is the regression test for the
// duplicate-work race's second half: two runs that both computed the same
// feature table must not rewrite (and double-journal) the identical entry.
// Pre-fix, the second Put replaced the entry and the dedup counter stayed 0.
func TestPutDedupSkipsIdenticalContent(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rows := featRows(1, 16, 8)
	k := testKey(3, Feature)
	if err := s.Put(k, rows); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if err := s.Put(k, rows); err != nil {
		t.Fatalf("identical Put: %v", err)
	}
	st := s.Snapshot()
	if st.Puts != 1 || st.DedupPuts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 put + 1 dedup over 1 entry", st)
	}

	// Different content under the same key is a real replace, not a dedup.
	if err := s.Put(k, featRows(2, 16, 8)); err != nil {
		t.Fatalf("replacing Put: %v", err)
	}
	st = s.Snapshot()
	if st.Puts != 2 || st.DedupPuts != 1 {
		t.Errorf("stats after replace = %+v, want 2 puts + 1 dedup", st)
	}
}

// TestStoreOpensDirectoryWithOldIndex: stores once kept a separate index file,
// index.vfs, beside their entries. The entry files alone are the store now,
// so such a directory opens warm with every entry and the old file is left
// alone.
func TestStoreOpensDirectoryWithOldIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i, Feature), featRows(i, 8, 4)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	old := filepath.Join(dir, "index.vfs")
	if err := os.WriteFile(old, []byte("VFSI\x01\x00\x00\x00 an old index"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := s2.Snapshot(); st.Entries != 3 || st.UsedBytes != diskUsage(t, dir) {
		t.Fatalf("reopened store is not warm with every entry: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := s2.Get(testKey(i, Feature)); err != nil || !ok {
			t.Errorf("entry %d after reopen: ok=%v err=%v", i, ok, err)
		}
	}
	if err := s2.Fsck(); err != nil {
		t.Error(err)
	}
	if _, err := os.Stat(old); err != nil {
		t.Errorf("old index file touched: %v", err)
	}
}

// TestKeyIDBindsKernelBody: the same key is filed under a different address
// for each GEMM kernel body, so an assembly build and a pure-Go build sharing
// a directory never serve each other's features.
func TestKeyIDBindsKernelBody(t *testing.T) {
	k := testKey(3, Feature)
	if asm, pure := k.address("avx2-fma"), k.address("purego"); asm == pure {
		t.Errorf("both kernel bodies file %v under %s", k, asm)
	}
	if k.id() != k.address(tensor.KernelName()) {
		t.Errorf("id() is not the address under this process's kernel body %q", tensor.KernelName())
	}
}

// deflateEraEntry is an entry as stores wrote them before the row codec's
// format word: two rows of one 3-float feature each (deflateEraRows),
// deflate-compressed.
const deflateEraEntry = "\x04\xc0\x01\x01\x00\x10\x10\x03\xc0\x9b\xf5\xf2\xa2\x89\"\xaa[\x00\x80\x02 \b\n\xe0nL\x00P\x00\x04A\xc1\x19\xe0\xcd\x0f\x00\x00\xff\xff"

func deflateEraRows() []dataflow.Row {
	return []dataflow.Row{
		{ID: 0, Features: tensor.NewTensorList(tensor.MustFromSlice([]float32{0, 0.25, 0.5}, 3))},
		{ID: 1, Features: tensor.NewTensorList(tensor.MustFromSlice([]float32{0.75, 0, 1.25}, 3))},
	}
}

// TestStoreDropsDeflateEraEntry: a directory written before the row codec's
// format word opens with its old entry charged; the entry's first Get is a
// miss that deletes it, and the recomputed Put stores the current format.
func TestStoreDropsDeflateEraEntry(t *testing.T) {
	dir := t.TempDir()
	k := testKey(2, Feature)
	path := filepath.Join(dir, k.id()+entrySuffix)
	if err := os.WriteFile(path, []byte(deflateEraEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st := s.Snapshot(); st.Entries != 1 || st.UsedBytes != int64(len(deflateEraEntry)) {
		t.Fatalf("old entry not charged at Open: %+v", st)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("Get of a deflate-era entry: ok=%v err=%v, want a miss", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("old entry file still on disk after its miss: %v", err)
	}
	if err := s.Fsck(); err != nil {
		t.Error(err)
	}
	if st := s.Snapshot(); st.Entries != 0 || st.UsedBytes != 0 || st.Misses != 1 {
		t.Errorf("after the miss: %+v", st)
	}

	rows := deflateEraRows()
	if err := s.Put(k, rows); err != nil {
		t.Fatalf("recompute Put: %v", err)
	}
	want, err := dataflow.EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, want) {
		t.Fatalf("recomputed entry on disk is not the current format (err %v)", err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after the recompute: ok=%v err=%v", ok, err)
	}
	if back, _ := dataflow.EncodeRows(got); !bytes.Equal(back, want) {
		t.Error("recomputed entry does not read back byte-identical")
	}
	if err := s.Fsck(); err != nil {
		t.Error(err)
	}
}

func TestStoreSkipsOversizedEntry(t *testing.T) {
	rows := featRows(1, 64, 32)
	budget := encodedSize(t, rows) / 2
	s, err := Open(t.TempDir(), budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(testKey(0, Feature), rows); err != nil {
		t.Fatalf("oversized Put must be a no-op, got: %v", err)
	}
	if st := s.Snapshot(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("oversized entry was stored: %+v", st)
	}
}

func TestDataChecksumSensitivity(t *testing.T) {
	rows := []dataflow.Row{
		{ID: 1, Image: []byte{1, 2, 3}},
		{ID: 2, Image: []byte{4, 5}},
	}
	base := DataChecksum(rows)
	if base != DataChecksum(rows) {
		t.Fatal("DataChecksum is not deterministic")
	}
	mutID := []dataflow.Row{{ID: 9, Image: []byte{1, 2, 3}}, rows[1]}
	if DataChecksum(mutID) == base {
		t.Fatal("checksum ignores row IDs")
	}
	mutImg := []dataflow.Row{{ID: 1, Image: []byte{1, 2, 9}}, rows[1]}
	if DataChecksum(mutImg) == base {
		t.Fatal("checksum ignores image bytes")
	}
	// Boundary shifts must not collide: {1,2,3},{4,5} vs {1,2},{3,4,5}.
	shift := []dataflow.Row{{ID: 1, Image: []byte{1, 2}}, {ID: 2, Image: []byte{3, 4, 5}}}
	if DataChecksum(shift) == base {
		t.Fatal("checksum ignores image boundaries")
	}
}
