package featurestore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/lru"
)

// Failpoint sites (see internal/faultinject). The two durable.WriteFileAtomic base
// sites expand into ".create", ".write" (a byte site), and ".rename"
// sub-sites; the put.* sites are the kill-here points crash-consistency
// tests arm between the store's two persistence steps.
const (
	// FaultEntryWrite is the base site for entry-file writes; sub-sites:
	// featurestore/entry.create, featurestore/entry.write (bytes),
	// featurestore/entry.rename.
	FaultEntryWrite = "featurestore/entry"
	// FaultIndexWrite is the base site for index writes; sub-sites:
	// featurestore/index.create, featurestore/index.write (bytes),
	// featurestore/index.rename.
	FaultIndexWrite = "featurestore/index"
	// FaultEntryRead guards Get's entry-file read-back.
	FaultEntryRead = "featurestore/entry.read"
	// FaultPutEntryWritten sits between a Put's entry write and its index
	// persist — a kill here leaves an entry file the index knows nothing
	// about (or, on replace, a file whose size disagrees with the index).
	FaultPutEntryWritten = "featurestore/put.entry-written"
	// FaultPutIndexPersisted sits after a Put's index persist — combined
	// with SilentTruncate on featurestore/index.write it crashes the
	// process right after a torn index reached its final name.
	FaultPutIndexPersisted = "featurestore/put.index-persisted"
)

// Store is a content-addressed, disk-backed materialized store for CNN
// feature tables (DeepLens-style feature reuse). Entries are whole feature
// tables — one per (model, weights, data, layer, kind) key — serialized with
// the dataflow row codec and evicted LRU under a byte budget. The index is
// persisted so a restarted process (or a second one pointed at the same
// directory) resumes with the same contents and recency order.
type Store struct {
	dir    string
	budget int64 // bytes; <= 0 means unlimited

	mu sync.Mutex
	// entries maps content address -> entry in recency order, each charged
	// its entry file's size; evicting one deletes the file (evicted).
	entries *lru.Cache[string, *storeEntry]

	hits, misses, puts, evictions int64
	readBytes, evictedBytes       int64
	dedupPuts                     int64
}

type storeEntry struct {
	key Key
	// sum is the blob's content hash, known only for entries written by this
	// process: entries recovered from the index carry the zero sum, which no
	// blob hashes to, so they are never dedup candidates.
	sum [32]byte
}

const (
	entrySuffix = ".fse"
	indexName   = "index.vfs"
)

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Entries     int   `json:"entries"`
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	// ReadBytes is the serialized size of every entry a hit has read and
	// decoded: the store's read work, which Hits alone hides (a raw carry is
	// about three times the size of the feature entry beside it).
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
// (<= 0 for unlimited). A corrupt index is not fatal: the directory is wiped
// and the store starts cold, since without a trustworthy index the entry
// files cannot be attributed to keys.
func Open(dir string, budget int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("featurestore: %w", err)
	}
	s := &Store{dir: dir, budget: budget}
	s.entries = lru.New(budget, s.evicted)
	persisted, err := s.loadIndex()
	if err != nil {
		// Corrupt or unreadable index: recover by starting cold.
		persisted = nil
		s.wipeEntryFiles()
		os.Remove(filepath.Join(dir, indexName))
	}
	// The index lists entries most recently used first; adding them oldest
	// first rebuilds that order (and evicts down to a budget that shrank).
	for i := len(persisted) - 1; i >= 0; i-- {
		e := persisted[i]
		id := e.Key.id()
		if _, dup := s.entries.Peek(id); dup || e.Size < 0 {
			continue
		}
		fi, statErr := os.Stat(s.entryPath(id))
		if statErr != nil || fi.Size() != e.Size {
			// Entry file lost or damaged since the index was written.
			os.Remove(s.entryPath(id))
			continue
		}
		s.entries.Add(id, &storeEntry{key: e.Key}, e.Size)
	}
	s.sweepTempFiles()
	s.removeOrphans()
	if s.entries.Len() != len(persisted) || persisted == nil {
		s.persistIndexLocked()
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the rows cached under k, or ok=false on a miss. A hit refreshes
// the entry's recency. An entry whose file has become unreadable is dropped
// and reported as a miss rather than an error, so callers can always fall
// back to recomputation.
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
			s.dropLocked(id)
			s.persistIndexLocked()
		}
		s.misses++
		return nil, false, nil
	}
	s.entries.Get(id) // refresh recency, if the entry is still there
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
		s.dedupPuts++
		return nil
	}
	// Write the new blob before touching the existing entry: WriteFileAtomic
	// replaces the old file only at its final rename, so a failed write
	// leaves a previous entry for the same key intact on disk and in memory
	// instead of destroying the old features and losing the key.
	if err := durable.WriteFileAtomic(FaultEntryWrite, s.entryPath(id), blob); err != nil {
		return fmt.Errorf("featurestore: write %s: %w", k, err)
	}
	if ferr := faultinject.Hit(FaultPutEntryWritten); ferr != nil {
		// Injected failure between entry write and index persist: roll the
		// key back entirely so disk and memory stay in agreement (the old
		// blob, if any, was already replaced by the rename above).
		if s.entries.Remove(id) {
			s.persistIndexLocked()
		}
		os.Remove(s.entryPath(id))
		return fmt.Errorf("featurestore: write %s: %w", k, ferr)
	}
	// Add replaces an entry already under id without the eviction callback:
	// the rename swapped its file for the new blob, which must stay.
	s.entries.Add(id, &storeEntry{key: k, sum: sum}, size)
	s.puts++
	if err := s.persistIndexLocked(); err != nil {
		// The entry itself is durable and usable; the stale index only
		// costs a cold entry after a crash (Open removes the orphan file).
		return fmt.Errorf("featurestore: persist index for %s: %w", k, err)
	}
	if ferr := faultinject.Hit(FaultPutIndexPersisted); ferr != nil {
		return fmt.Errorf("featurestore: %s: %w", k, ferr)
	}
	return nil
}

// Contains reports whether k is cached, without touching recency or the
// hit/miss counters (used for planning probes, not reads).
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries.Peek(k.id())
	return ok
}

// CachedLayers reports how many of the given layer indices — taken in order —
// have Feature entries cached for the (model, weights, data) triple. The
// count stops at the first miss because the executor consumes layers
// bottom-up: a hole in the middle forces inference from the image anyway.
func (s *Store) CachedLayers(model, weightsSum, dataSum string, layers []int) int {
	n := 0
	for _, li := range layers {
		k := Key{Model: model, WeightsSum: weightsSum, DataSum: dataSum, LayerIndex: li, Kind: Feature}
		if !s.Contains(k) {
			break
		}
		n++
	}
	return n
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

// Close persists the index (entry recency included) to disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistIndexLocked()
}

// Fsck cross-checks the in-memory index against the directory: every indexed
// entry must have a file of the recorded size, every entry file must be
// indexed, no atomic-write temp files may linger, the byte accounting must
// equal the sum of entry sizes, and the persisted index must decode. Chaos
// and crash-consistency tests call it after every fault schedule; it returns
// the first inconsistency found.
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
			bad = fmt.Errorf("featurestore: fsck: indexed entry %s has no file: %w", id, err)
		case fi.Size() != size:
			bad = fmt.Errorf("featurestore: fsck: entry %s is %d bytes on disk, index says %d", id, fi.Size(), size)
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
	blob, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		if os.IsNotExist(err) && s.entries.Len() == 0 {
			return nil // never persisted; an empty store is consistent
		}
		return fmt.Errorf("featurestore: fsck: reading index: %w", err)
	}
	if _, err := DecodeIndex(blob); err != nil {
		return fmt.Errorf("featurestore: fsck: %w", err)
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

// dropLocked removes an entry from memory and disk.
func (s *Store) dropLocked(id string) {
	s.entries.Remove(id)
	os.Remove(s.entryPath(id))
}

func (s *Store) entryPath(id string) string {
	return filepath.Join(s.dir, id+entrySuffix)
}

func (s *Store) loadIndex() ([]IndexEntry, error) {
	blob, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeIndex(blob)
}

// persistIndexLocked writes the index most recently used first, which is
// the order Open restores recency from.
func (s *Store) persistIndexLocked() error {
	n := s.entries.Len()
	entries := make([]IndexEntry, 0, n)
	s.entries.Each(func(_ string, e *storeEntry, size int64) {
		entries = append(entries, IndexEntry{Key: e.key, Size: size, LastUsed: int64(n - len(entries))})
	})
	return durable.WriteFileAtomic(FaultIndexWrite, filepath.Join(s.dir, indexName), EncodeIndex(entries))
}

// sweepTempFiles removes stale atomic-write temp files — a process killed
// between a temp write and its rename leaves one behind.
func (s *Store) sweepTempFiles() {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), durable.TmpPrefix) {
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
}

// wipeEntryFiles deletes every entry file; used when the index is corrupt
// and the files can no longer be attributed to keys.
func (s *Store) wipeEntryFiles() {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		if strings.HasSuffix(de.Name(), entrySuffix) {
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
}

// removeOrphans deletes entry files the index does not know about (e.g. a
// crash between an entry write and the index write).
func (s *Store) removeOrphans() {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		id := strings.TrimSuffix(name, entrySuffix)
		if _, ok := s.entries.Peek(id); !ok {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}
