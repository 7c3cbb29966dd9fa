package dataflow

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/lru"
	"repro/internal/memory"
)

// storageCache manages one node's Storage Memory: cached partitions in LRU
// order charged against a memory pool. Under pressure, a Spark-like system
// evicts the least-recently-used partition to a real spill file on disk; an
// Ignite-like (memory-only) system surfaces a StorageExhausted crash —
// exactly the behavioral split behind the paper's Figure 6 Ignite/Eager
// crash and Spark/Eager slowdown.
type storageCache struct {
	engine *Engine
	pool   *memory.Pool

	// cached holds the resident partitions by id in recency order, guarded
	// by the engine lock (every mutation goes through add/touch/drop). It
	// has no budget of its own: pool is the budget, because a refused charge
	// is the Ignite crash and an eviction here is a spill that can fail.
	cached *lru.Cache[int64, *Partition]
}

func newStorageCache(e *Engine, capacity int64) *storageCache {
	return &storageCache{
		engine: e,
		pool:   memory.NewPool(memory.Storage, memory.StorageExhausted, capacity),
		cached: lru.New[int64, *Partition](0, nil),
	}
}

// add caches a partition, serializing it first if the engine's default
// format asks for it, evicting (Spark) or failing (Ignite) under pressure.
func (sc *storageCache) add(p *Partition) error {
	sc.engine.mu.Lock()
	defer sc.engine.mu.Unlock()

	if sc.engine.cfg.DefaultFormat == Serialized {
		p.mu.Lock()
		if _, err := p.serializeLocked(); err != nil {
			p.mu.Unlock()
			return err
		}
		p.mu.Unlock()
	}
	need := p.MemBytes()
	if err := sc.admitLocked(need, ""); err != nil {
		return memory.Describe(err, fmt.Sprintf("cache partition %d (%s)", p.index, memory.FormatBytes(need)))
	}
	sc.cached.Add(p.id, p, 0)
	sc.updatePeak()
	return nil
}

// admitLocked charges need bytes to the pool, spilling least-recently-used
// partitions to make room (Spark); a memory-only system has nothing
// evictable, so the charge fails instead (Ignite).
func (sc *storageCache) admitLocked(need int64, detail string) error {
	return sc.pool.TryAllocOrEvict(need, detail, func(int64) int64 {
		if !sc.engine.cfg.Kind.SupportsSpill() {
			return 0
		}
		return sc.evictLRULocked()
	})
}

// spillLocked writes p to a spill file and counts the write, as every disk
// write of a partition must be counted, or instrumentation (and
// sim.CompareStorage's spill-volume comparison) undercounts I/O.
func (sc *storageCache) spillLocked(p *Partition) error {
	dir, err := sc.engine.spillDirLocked()
	if err != nil {
		return err
	}
	written, err := p.spill(dir)
	if err != nil {
		return err
	}
	sc.engine.counters.BytesSpilled.Add(written)
	sc.engine.counters.Spills.Add(1)
	sc.engine.noteSpillLocked(p.SpillPath())
	return nil
}

// evictLRULocked spills the least-recently-used partition and returns the
// bytes it released from the pool (0 if nothing remains).
func (sc *storageCache) evictLRULocked() int64 {
	_, p, ok := sc.cached.Oldest()
	if !ok {
		return 0
	}
	charged := p.MemBytes()
	// On disk trouble the partition leaves the cache anyway (its rows stay
	// readable in memory) and its charge is released: the cache no longer
	// tracks it, so keeping the charge would leak Storage-pool bytes forever
	// and fabricate StorageExhausted crashes on healthy runs.
	_ = sc.spillLocked(p)
	sc.cached.Remove(p.id)
	sc.pool.Free(charged)
	return charged
}

// touch loads a partition's rows for processing, unspilling it (and charging
// storage) if it was evicted; it also refreshes LRU recency.
func (sc *storageCache) touch(p *Partition) ([]Row, error) {
	sc.engine.mu.Lock()
	sc.cached.Get(p.id) // refresh recency
	spilled := p.Spilled()
	sc.engine.mu.Unlock()

	if spilled {
		// Read back from disk, then re-admit to the cache.
		sc.engine.mu.Lock()
		defer sc.engine.mu.Unlock()
		if p.Spilled() { // re-check under lock
			path := p.SpillPath()
			n, err := p.unspill(sc.engine.cfg.DefaultFormat)
			if err != nil {
				return nil, err
			}
			sc.engine.noteUnspillLocked(path)
			sc.engine.counters.BytesUnspilled.Add(n)
			sc.engine.counters.Unspills.Add(1)
			err = faultinject.Hit(FaultUnspillAdmit)
			if err == nil {
				err = sc.admitLocked(n, "unspill")
			}
			if err != nil {
				// The rows are already resident but the pool refused the
				// charge: re-spill (or, under disk trouble, discard) so the
				// partition never lingers as memory the model can't see.
				if sc.spillLocked(p) != nil {
					p.discard()
				}
				return nil, err
			}
			sc.cached.Add(p.id, p, 0)
			sc.updatePeak()
		}
		return p.Rows()
	}
	return p.Rows()
}

// drop removes a partition from the cache and releases its storage charge.
func (sc *storageCache) drop(p *Partition) {
	sc.engine.mu.Lock()
	defer sc.engine.mu.Unlock()
	if sc.cached.Remove(p.id) {
		sc.pool.Free(p.MemBytes())
	}
	sc.engine.noteUnspillLocked(p.SpillPath())
	p.discard()
}

func (sc *storageCache) updatePeak() {
	var total int64
	for _, n := range sc.engine.nodes {
		total += n.storage.pool.Used()
	}
	maxStore(&sc.engine.counters.PeakStorageBytes, total)
}
