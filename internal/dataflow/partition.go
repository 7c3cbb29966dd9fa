package dataflow

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Failpoint sites (see internal/faultinject) on the spill I/O edges.
const (
	// FaultSpillWrite is the byte site for spill-file writes; a torn write
	// there must never leave a partial spill file behind.
	FaultSpillWrite = "dataflow/spill.write"
	// FaultUnspillRead guards reading a spill file back.
	FaultUnspillRead = "dataflow/unspill.read"
	// FaultUnspillAdmit models the storage pool refusing to re-admit an
	// unspilled partition (the touch recovery path).
	FaultUnspillAdmit = "dataflow/unspill.admit"
)

// PersistFormat selects how a cached partition is held in Storage Memory
// (Section 4.2.3): deserialized rows, or a serialized blob that is smaller
// (zero runs and per-object overhead dropped) but costs CPU to translate.
type PersistFormat int

// Persistence formats.
const (
	// Deserialized keeps live Row values.
	Deserialized PersistFormat = iota
	// Serialized keeps the EncodeRows blob: the row codec's zero-run
	// encoding, the same bytes a spill file holds.
	Serialized
)

// String implements fmt.Stringer.
func (f PersistFormat) String() string {
	if f == Serialized {
		return "serialized"
	}
	return "deserialized"
}

var partitionIDs atomic.Int64

// Partition is one horizontal slice of a table. Its contents live in exactly
// one of three states: deserialized rows, a serialized blob, or a spill file
// on disk.
type Partition struct {
	id    int64
	index int // position within the table

	mu        sync.Mutex
	rows      []Row
	blob      []byte
	spillPath string
	format    PersistFormat
	memBytes  int64 // current storage-memory charge
}

// newPartition wraps rows into a deserialized partition.
func newPartition(index int, rows []Row) *Partition {
	p := &Partition{id: partitionIDs.Add(1), index: index, rows: rows, format: Deserialized}
	p.memBytes = rowsMemBytes(rows)
	return p
}

func rowsMemBytes(rows []Row) int64 {
	var n int64
	for i := range rows {
		n += rows[i].MemBytes()
	}
	return n
}

// MemBytes returns the partition's current Storage Memory charge (0 when
// spilled to disk).
func (p *Partition) MemBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spillPath != "" {
		return 0
	}
	return p.memBytes
}

// Spilled reports whether the partition currently lives on disk.
func (p *Partition) Spilled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spillPath != ""
}

// SpillPath returns the partition's current spill file path ("" when
// resident); the engine uses it to track files for crash-time cleanup.
func (p *Partition) SpillPath() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spillPath
}

// Rows materializes the partition's rows, reading back spilled or serialized
// data as needed. The returned slice must be treated as read-only.
func (p *Partition) Rows() ([]Row, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rowsLocked()
}

func (p *Partition) rowsLocked() ([]Row, error) {
	if p.rows != nil {
		return p.rows, nil
	}
	blob := p.blob
	if blob == nil && p.spillPath != "" {
		if err := faultinject.Hit(FaultUnspillRead); err != nil {
			return nil, fmt.Errorf("dataflow: read spill: %w", err)
		}
		b, err := os.ReadFile(p.spillPath)
		if err != nil {
			return nil, fmt.Errorf("dataflow: read spill: %w", err)
		}
		blob = b
	}
	if blob == nil {
		return nil, nil // genuinely empty
	}
	rows, err := DecodeRows(blob)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// serializeLocked converts the partition to its serialized in-memory form and
// returns the blob size. No-op if already serialized.
func (p *Partition) serializeLocked() (int64, error) {
	if p.format == Serialized && p.blob != nil {
		return int64(len(p.blob)), nil
	}
	rows, err := p.rowsLocked()
	if err != nil {
		return 0, err
	}
	blob, err := EncodeRows(rows)
	if err != nil {
		return 0, err
	}
	p.blob = blob
	p.rows = nil
	p.format = Serialized
	p.memBytes = int64(len(blob))
	return p.memBytes, nil
}

// spill writes the partition to dir and drops its in-memory contents,
// returning the number of bytes written.
func (p *Partition) spill(dir string) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spillPath != "" {
		return 0, nil
	}
	blob := p.blob
	if blob == nil {
		rows, err := p.rowsLocked()
		if err != nil {
			return 0, err
		}
		blob, err = EncodeRows(rows)
		if err != nil {
			return 0, err
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("part-%d.spill", p.id))
	payload := blob
	if v := faultinject.HitBytes(FaultSpillWrite, int64(len(blob))); v.Err != nil {
		// A torn write: persist the prefix a dying disk would leave, then
		// clean it up — a failed spill must not strand an orphan file.
		if v.Allowed > 0 {
			os.WriteFile(path, blob[:v.Allowed], 0o600)
		}
		os.Remove(path)
		return 0, fmt.Errorf("dataflow: spill: %w", v.Err)
	} else if v.SilentTear {
		// A silent torn write: the spill "succeeds" but only a prefix is
		// durable; the corruption surfaces as a typed decode error at
		// unspill time, never as a wrong answer.
		payload = blob[:v.Allowed]
	}
	if err := os.WriteFile(path, payload, 0o600); err != nil {
		return 0, fmt.Errorf("dataflow: spill: %w", err)
	}
	p.spillPath = path
	p.rows = nil
	p.blob = nil
	return int64(len(blob)), nil
}

// unspillLocked loads a spilled partition back into memory in the given
// format and returns its new memory charge.
func (p *Partition) unspill(format PersistFormat) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spillPath == "" {
		return p.memBytes, nil
	}
	if err := faultinject.Hit(FaultUnspillRead); err != nil {
		return 0, fmt.Errorf("dataflow: unspill: %w", err)
	}
	blob, err := os.ReadFile(p.spillPath)
	if err != nil {
		return 0, fmt.Errorf("dataflow: unspill: %w", err)
	}
	if err := os.Remove(p.spillPath); err != nil {
		return 0, fmt.Errorf("dataflow: unspill: %w", err)
	}
	p.spillPath = ""
	if format == Serialized {
		p.blob = blob
		p.format = Serialized
		p.memBytes = int64(len(blob))
	} else {
		rows, err := DecodeRows(blob)
		if err != nil {
			return 0, err
		}
		p.rows = rows
		p.format = Deserialized
		p.memBytes = rowsMemBytes(rows)
	}
	return p.memBytes, nil
}

// discard removes any spill file; used when a table is dropped.
func (p *Partition) discard() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spillPath != "" {
		os.Remove(p.spillPath)
		p.spillPath = ""
	}
	p.rows = nil
	p.blob = nil
	p.memBytes = 0
}
