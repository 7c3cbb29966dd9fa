package dataflow

import (
	"fmt"
	"sort"
)

// Table is a distributed collection of rows split into partitions, each owned
// by one worker node (partition i lives on node i mod Nodes).
type Table struct {
	Name       string
	engine     *Engine
	partitions []*Partition
}

// NumPartitions returns np for this table.
func (t *Table) NumPartitions() int { return len(t.partitions) }

// NumRows counts rows across all partitions (may read spilled data).
func (t *Table) NumRows() (int, error) {
	total := 0
	for _, p := range t.partitions {
		n, err := p.NumRows()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// MemBytes returns the table's current Storage Memory charge.
func (t *Table) MemBytes() int64 {
	var n int64
	for _, p := range t.partitions {
		n += p.MemBytes()
	}
	return n
}

// CreateTable ingests rows into a new cached table with np hash partitions on
// ID. It counts the rows' payload as input bytes read. Ingestion runs on the
// driver (no tasks), so the run context is checked once up front.
func (e *Engine) CreateTable(name string, rows []Row, np int) (*Table, error) {
	if np <= 0 {
		return nil, fmt.Errorf("dataflow: table %s: np must be positive, got %d", name, np)
	}
	if err := e.context().Err(); err != nil {
		return nil, err
	}
	buckets := make([][]Row, np)
	var readBytes int64
	for _, r := range rows {
		b := int(uint64(r.ID) % uint64(np))
		buckets[b] = append(buckets[b], r)
		readBytes += r.MemBytes()
	}
	e.counters.BytesRead.Add(readBytes)
	t := &Table{Name: name, engine: e, partitions: make([]*Partition, np)}
	for i, b := range buckets {
		p := newPartition(i, b)
		if err := e.nodeFor(i).storage.add(p); err != nil {
			// Release the partitions already admitted: a failed ingest must
			// not leave storage charges (or spill files) behind.
			t.Drop()
			return nil, fmt.Errorf("dataflow: ingest %s: %w", name, err)
		}
		t.partitions[i] = p
	}
	return t, nil
}

// PartitionFunc transforms one partition's rows. The input slice is
// read-only; returning a new slice is required when rows change.
type PartitionFunc func(tc *TaskContext, in []Row) ([]Row, error)

// MapPartitions applies fn to every partition in parallel, producing a new
// cached table. The UDF's working set — the input partition plus its output —
// is charged to User Memory for the task's duration, reproducing crash
// scenarios 2 and 3 for oversized partitions or feature blow-ups.
func (e *Engine) MapPartitions(name string, t *Table, fn PartitionFunc) (*Table, error) {
	out := &Table{Name: name, engine: e, partitions: make([]*Partition, len(t.partitions))}
	err := e.runTasks(len(t.partitions), func(tc *TaskContext) error {
		in := t.partitions[tc.Part]
		node := e.nodeFor(tc.Part)
		rows, err := node.storage.touch(in)
		if err != nil {
			return err
		}
		inBytes := rowsMemBytes(rows)
		if err := node.user.Alloc(inBytes, fmt.Sprintf("udf input partition %d", tc.Part)); err != nil {
			return err
		}
		defer node.user.Free(inBytes)

		outRows, err := fn(tc, rows)
		if err != nil {
			return err
		}
		outBytes := rowsMemBytes(outRows)
		if err := node.user.Alloc(outBytes, fmt.Sprintf("udf output partition %d", tc.Part)); err != nil {
			return err
		}
		defer node.user.Free(outBytes)

		e.counters.RowsProcessed.Add(int64(len(rows)))
		p := newPartition(tc.Part, outRows)
		if err := node.storage.add(p); err != nil {
			return err
		}
		out.partitions[tc.Part] = p
		return nil
	})
	if err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}

// Filter keeps rows for which pred returns true.
func (e *Engine) Filter(name string, t *Table, pred func(r *Row) bool) (*Table, error) {
	return e.MapPartitions(name, t, func(_ *TaskContext, in []Row) ([]Row, error) {
		var out []Row
		for i := range in {
			if pred(&in[i]) {
				out = append(out, in[i])
			}
		}
		return out, nil
	})
}

// Repartition redistributes a table into np hash partitions on ID, shuffling
// every byte across the cluster.
func (e *Engine) Repartition(name string, t *Table, np int) (*Table, error) {
	if np <= 0 {
		return nil, fmt.Errorf("dataflow: repartition %s: np must be positive, got %d", name, np)
	}
	buckets := make([][]Row, np)
	for _, p := range t.partitions {
		rows, err := e.nodeFor(p.index).storage.touch(p)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			b := int(uint64(rows[i].ID) % uint64(np))
			buckets[b] = append(buckets[b], rows[i])
			e.counters.BytesShuffled.Add(rows[i].MemBytes())
		}
	}
	out := &Table{Name: name, engine: e, partitions: make([]*Partition, np)}
	for i, b := range buckets {
		p := newPartition(i, b)
		if err := e.nodeFor(i).storage.add(p); err != nil {
			out.Drop()
			return nil, err
		}
		out.partitions[i] = p
	}
	return out, nil
}

// ForEachPartition runs fn over every partition in parallel without
// producing a new table — the primitive downstream training loops use to
// aggregate gradients. Input partitions are charged to User Memory for the
// task's duration, like MapPartitions.
func (e *Engine) ForEachPartition(t *Table, fn func(tc *TaskContext, rows []Row) error) error {
	return e.runTasks(len(t.partitions), func(tc *TaskContext) error {
		node := e.nodeFor(tc.Part)
		rows, err := node.storage.touch(t.partitions[tc.Part])
		if err != nil {
			return err
		}
		inBytes := rowsMemBytes(rows)
		if err := node.user.Alloc(inBytes, fmt.Sprintf("aggregate input partition %d", tc.Part)); err != nil {
			return err
		}
		defer node.user.Free(inBytes)
		e.counters.RowsProcessed.Add(int64(len(rows)))
		return fn(tc, rows)
	})
}

// Collect gathers all rows at the driver, sorted by ID. The result is charged
// against Driver memory — crash scenario 4 for oversized collects.
func (e *Engine) Collect(t *Table) ([]Row, error) {
	var all []Row
	var total int64
	for _, p := range t.partitions {
		rows, err := e.nodeFor(p.index).storage.touch(p)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			total += rows[i].MemBytes()
		}
		all = append(all, rows...)
	}
	if err := e.driver.Alloc(total, fmt.Sprintf("collect %s (%d rows)", t.Name, len(all))); err != nil {
		return nil, err
	}
	e.driver.Free(total) // the caller owns the data beyond this accounting probe
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all, nil
}

// Drop removes the table from all caches and deletes its spill files.
func (t *Table) Drop() {
	if t == nil || t.engine == nil {
		return
	}
	for _, p := range t.partitions {
		if p != nil {
			t.engine.nodeFor(p.index).storage.drop(p)
		}
	}
	t.partitions = nil
}
