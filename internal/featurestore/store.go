package featurestore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/lru"
)

// Failpoint sites (see internal/faultinject). The durable.WriteFileAtomic base
// site expands into ".create", ".write" (a byte site), and ".rename"
// sub-sites; the rename is a Put's one commit point.
const (
	// FaultEntryWrite is the base site for entry-file writes; sub-sites:
	// featurestore/entry.create, featurestore/entry.write (bytes),
	// featurestore/entry.rename.
	FaultEntryWrite = "featurestore/entry"
	// FaultEntryRead guards Get's entry-file read-back.
	FaultEntryRead = "featurestore/entry.read"
)

// Store is a content-addressed, disk-backed materialized store for CNN
// feature tables (DeepLens-style feature reuse). Entries are whole feature
// tables — one per (model, weights, data, layer, kind) key — serialized with
// the dataflow row codec and evicted LRU under a byte budget. The directory
// is the store's whole state: each entry is one file named by its key's
// content address, charged its size, whose mtime is its recency, so a
// restarted process (or a second one pointed at the same directory) resumes
// with the same contents and recency order.
type Store struct {
	dir    string
	budget int64 // bytes; <= 0 means unlimited

	mu sync.Mutex
	// entries maps content address -> entry in recency order, each charged
	// its entry file's size; evicting one deletes the file (evicted).
	entries *lru.Cache[string, *storeEntry]
	// stamp is the mtime the last recency refresh wrote (touchLocked).
	stamp time.Time

	hits, misses, puts, evictions int64
	readBytes, evictedBytes       int64
	dedupPuts                     int64
}

type storeEntry struct {
	// sum is the blob's content hash, known only for entries written by this
	// process: entries found on disk at Open carry the zero sum, which no
	// blob hashes to, so they are never dedup candidates.
	sum [32]byte
}

const entrySuffix = ".fse"

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Entries     int   `json:"entries"`
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	// ReadBytes is the serialized size of every entry a hit has read and
	// decoded: the store's read work, which Hits alone hides. Kinds differ in
	// size: on tiny-resnet50 (100 rows, 5 layers) the bottom layer's raw
	// carry is 3.5 times its feature entry, and the four carries together
	// 1.5 times the five feature entries.
	ReadBytes    int64 `json:"read_bytes"`
	Puts         int64 `json:"puts"`
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	// DedupPuts counts Puts whose payload was byte-identical to the entry
	// already stored under the key; the write was skipped (recency still
	// refreshed).
	DedupPuts int64 `json:"dedup_puts"`
}

// Open loads (or creates) a store rooted at dir with the given byte budget
// (<= 0 for unlimited). Every *.fse file is an entry charged its size; adding
// them oldest mtime first (ties by name) rebuilds the recency order and
// evicts down to a budget that shrank. Atomic-write temp files a killed
// process stranded are swept, and every other file is ignored. Entries are
// not read, so a torn one is found by its first Get.
func Open(dir string, budget int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("featurestore: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("featurestore: %w", err)
	}
	type file struct {
		id    string
		size  int64
		mtime time.Time
	}
	var files []file
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, durable.TmpPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		if fi, err := de.Info(); err == nil {
			files = append(files, file{strings.TrimSuffix(name, entrySuffix), fi.Size(), fi.ModTime()})
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].id < files[j].id
	})
	s := &Store{dir: dir, budget: budget}
	s.entries = lru.New(budget, s.evicted)
	for _, f := range files {
		s.entries.Add(f.id, &storeEntry{}, f.size)
		s.stamp = f.mtime
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the rows cached under k, or ok=false on a miss. A hit refreshes
// the entry's recency. An entry whose file has become unreadable or does not
// decode (a torn write) is dropped and reported as a miss rather than an
// error, so callers can always fall back to recomputation.
func (s *Store) Get(k Key) ([]dataflow.Row, bool, error) {
	id := k.id()
	s.mu.Lock()
	e, ok := s.entries.Peek(id)
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	s.mu.Unlock()

	// Read and decode outside the lock: a single large-entry read must not
	// serialize every other request against the process-wide store. The
	// entry file may be replaced or removed meanwhile — rename-based writes
	// guarantee we still see a complete blob or a clean ENOENT.
	var rows []dataflow.Row
	blob, err := s.readEntry(id)
	if err == nil {
		rows, err = dataflow.DecodeRows(blob)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// Unreadable or undecodable entry: drop it — unless it already
		// vanished (or was replaced) while we read — and report a miss so
		// callers fall back to recomputation.
		if cur, present := s.entries.Peek(id); present && cur == e {
			s.entries.Remove(id)
			os.Remove(s.entryPath(id))
		}
		s.misses++
		return nil, false, nil
	}
	if _, present := s.entries.Get(id); present {
		s.touchLocked(id)
	}
	s.hits++
	s.readBytes += int64(len(blob))
	return rows, true, nil
}

// readEntry loads one entry file's blob (its failpoint site models a bad
// sector or lost file at read time).
func (s *Store) readEntry(id string) ([]byte, error) {
	if err := faultinject.Hit(FaultEntryRead); err != nil {
		return nil, err
	}
	return os.ReadFile(s.entryPath(id))
}

// Put materializes rows under k, evicting LRU entries as needed to respect
// the byte budget. A payload larger than the whole budget is skipped (not an
// error): caching it would only flush everything else for a single entry.
func (s *Store) Put(k Key, rows []dataflow.Row) error {
	blob, err := dataflow.EncodeRows(rows)
	if err != nil {
		return fmt.Errorf("featurestore: encode %s: %w", k, err)
	}
	size := int64(len(blob))
	sum := sha256.Sum256(blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && size > s.budget {
		return nil
	}
	id := k.id()
	if prev, ok := s.entries.Peek(id); ok && prev.sum == sum {
		// Identical content is already durable under this key — the classic
		// duplicate-work race (two runs miss, both compute, both Put). Skip
		// the disk write entirely; just refresh recency.
		s.entries.Get(id)
		s.touchLocked(id)
		s.dedupPuts++
		return nil
	}
	// The rename at the end of WriteFileAtomic is the Put's one commit point:
	// a write that fails before it leaves a previous entry for the same key
	// intact on disk and in memory.
	if err := durable.WriteFileAtomic(FaultEntryWrite, s.entryPath(id), blob); err != nil {
		return fmt.Errorf("featurestore: write %s: %w", k, err)
	}
	// Add replaces an entry already under id without the eviction callback:
	// the rename swapped its file for the new blob, which must stay.
	s.entries.Add(id, &storeEntry{sum: sum}, size)
	s.touchLocked(id)
	s.puts++
	return nil
}

// touchLocked records id as the most recently used entry on disk: it sets the
// file's mtime to a stamp later than every one before it, so Open rebuilds
// the same order even when the clock has not moved since the last refresh.
func (s *Store) touchLocked(id string) {
	// Round(0) drops the monotonic reading: the stamp is compared as the
	// wall-clock time the file will hold.
	now := time.Now().Round(0)
	if !now.After(s.stamp) {
		now = s.stamp.Add(time.Nanosecond)
	}
	s.stamp = now
	// A stamp that fails to land costs only this entry's place in the
	// recency order a restart rebuilds.
	_ = os.Chtimes(s.entryPath(id), now, now)
}

// Contains reports whether k is cached, without touching recency or the
// hit/miss counters (used for planning probes, not reads).
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries.Peek(k.id())
	return ok
}

// Snapshot returns current counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:      s.entries.Len(),
		UsedBytes:    s.entries.Used(),
		BudgetBytes:  s.budget,
		Hits:         s.hits,
		Misses:       s.misses,
		ReadBytes:    s.readBytes,
		Puts:         s.puts,
		Evictions:    s.evictions,
		EvictedBytes: s.evictedBytes,
		DedupPuts:    s.dedupPuts,
	}
}

// Close releases the store. Every Put and recency refresh is on disk when it
// returns, so there is nothing left to persist.
func (s *Store) Close() error { return nil }

// Fsck cross-checks the in-memory entries against the directory: every entry
// must have a file of the size it is charged, every entry file must be an
// entry, no atomic-write temp files may linger, and the byte accounting must
// equal the sum of entry sizes. Chaos and crash-consistency tests call it
// after every fault schedule; it returns the first inconsistency found.
//
// It is a test oracle, not a boot check: Open rebuilds the index from the
// directory listing, so a check at open could never fail. It lives here,
// not in this package's tests, because internal/chaos's tests call it too.
//
//vista:keep a test oracle the chaos and crash-consistency tests audit the store with
func (s *Store) Fsck() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	var bad error
	s.entries.Each(func(id string, _ *storeEntry, size int64) {
		fi, err := os.Stat(s.entryPath(id))
		switch {
		case bad != nil:
		case err != nil:
			bad = fmt.Errorf("featurestore: fsck: entry %s has no file: %w", id, err)
		case fi.Size() != size:
			bad = fmt.Errorf("featurestore: fsck: entry %s is %d bytes on disk, charged %d", id, fi.Size(), size)
		}
		sum += size
	})
	if bad != nil {
		return bad
	}
	if sum != s.entries.Used() {
		return fmt.Errorf("featurestore: fsck: %d bytes charged, entries sum to %d", s.entries.Used(), sum)
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("featurestore: fsck: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, durable.TmpPrefix) {
			return fmt.Errorf("featurestore: fsck: stranded temp file %s", name)
		}
		if strings.HasSuffix(name, entrySuffix) {
			if _, ok := s.entries.Peek(strings.TrimSuffix(name, entrySuffix)); !ok {
				return fmt.Errorf("featurestore: fsck: orphan entry file %s", name)
			}
		}
	}
	return nil
}

// evicted is the entry cache's eviction callback, run under s.mu: the
// budget no longer holds the entry, so neither does the disk.
func (s *Store) evicted(id string, _ *storeEntry, size int64) {
	os.Remove(s.entryPath(id))
	s.evictions++
	s.evictedBytes += size
}

func (s *Store) entryPath(id string) string {
	return filepath.Join(s.dir, id+entrySuffix)
}
