package dataflow

import "sync/atomic"

// Counters instruments an engine run. All fields are updated atomically by
// tasks; read them after the run completes. They feed the experiment
// harnesses (e.g. Figure 15 compares Equation 16 estimates against measured
// intermediate sizes) and validate the analytical simulator.
type Counters struct {
	// TasksRun counts executed tasks.
	TasksRun atomic.Int64
	// RowsProcessed counts rows that flowed through operators.
	RowsProcessed atomic.Int64
	// BytesShuffled counts bytes moved between nodes by shuffle joins and
	// repartitioning.
	BytesShuffled atomic.Int64
	// BytesBroadcast counts bytes replicated to every node by broadcast
	// joins.
	BytesBroadcast atomic.Int64
	// BytesSpilled counts bytes written to spill files under storage
	// pressure.
	BytesSpilled atomic.Int64
	// BytesUnspilled counts bytes read back from spill files.
	BytesUnspilled atomic.Int64
	// Spills counts partition evictions to disk (the event count behind
	// BytesSpilled; scrape-side rate() needs both).
	Spills atomic.Int64
	// Unspills counts partitions read back from disk.
	Unspills atomic.Int64
	// BytesRead counts input bytes ingested into base tables.
	BytesRead atomic.Int64
	// FLOPs counts floating-point work reported by UDFs (CNN inference and
	// downstream training).
	FLOPs atomic.Int64
	// PeakStorageBytes tracks the high-water mark of cached partition
	// bytes across all nodes.
	PeakStorageBytes atomic.Int64
}

// Snapshot is a plain-value copy of the Counters a run reports; the spill
// and ingest event counters feed only the /metrics series.
type Snapshot struct {
	TasksRun         int64
	RowsProcessed    int64
	BytesShuffled    int64
	BytesBroadcast   int64
	BytesSpilled     int64
	FLOPs            int64
	PeakStorageBytes int64
}

// Snapshot returns a consistent-enough copy for post-run reporting.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		TasksRun:         c.TasksRun.Load(),
		RowsProcessed:    c.RowsProcessed.Load(),
		BytesShuffled:    c.BytesShuffled.Load(),
		BytesBroadcast:   c.BytesBroadcast.Load(),
		BytesSpilled:     c.BytesSpilled.Load(),
		FLOPs:            c.FLOPs.Load(),
		PeakStorageBytes: c.PeakStorageBytes.Load(),
	}
}

// maxStore updates a max-tracking atomic.
func maxStore(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
