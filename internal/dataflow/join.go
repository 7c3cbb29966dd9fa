package dataflow

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/tensor"
)

// JoinKind selects the physical join operator (Section 4.2.3; Table 1(B):
// join).
type JoinKind int

// Physical join operators.
const (
	// ShuffleJoin hashes both tables on the join key into shuffle blocks,
	// sends each block to its worker, and joins locally.
	ShuffleJoin JoinKind = iota
	// BroadcastJoin replicates the smaller table to every worker and
	// probes it with the outer table, avoiding shuffles.
	BroadcastJoin
)

// String implements fmt.Stringer.
func (k JoinKind) String() string {
	if k == BroadcastJoin {
		return "broadcast"
	}
	return "shuffle"
}

// mergeRows combines the payloads of a structured row and an image/feature
// row sharing an ID: structured features from left, image and features from
// right, label from whichever side carries one (left wins).
func mergeRows(left, right *Row) Row {
	out := Row{ID: left.ID, Label: left.Label, Structured: left.Structured}
	if out.Structured == nil {
		out.Structured = right.Structured
	}
	out.Image = right.Image
	if out.Image == nil {
		out.Image = left.Image
	}
	switch {
	case left.Features != nil && right.Features != nil:
		merged := tensor.NewTensorList()
		for i := 0; i < left.Features.Len(); i++ {
			merged.Append(left.Features.Get(i))
		}
		for i := 0; i < right.Features.Len(); i++ {
			merged.Append(right.Features.Get(i))
		}
		out.Features = merged
	case left.Features != nil:
		out.Features = left.Features
	default:
		out.Features = right.Features
	}
	return out
}

// Join performs a key-key inner join of left and right on ID (the workload's
// step (3): T' ← Tstr ⋈ T'img) using the chosen physical operator, producing
// a new cached table partitioned like the left input for shuffle joins and
// like the right input for broadcast joins.
//
// Join takes ownership of right: each task drops the right-side partition it
// has read before caching its output, so the image bytes are resident once,
// as Section 4.1's memory model prices the join. right is dropped on every
// exit path, failures included. left stays the caller's.
func (e *Engine) Join(name string, left, right *Table, kind JoinKind) (*Table, error) {
	defer right.Drop()
	switch kind {
	case ShuffleJoin:
		return e.shuffleJoin(name, left, right)
	case BroadcastJoin:
		return e.broadcastJoin(name, left, right)
	}
	return nil, fmt.Errorf("dataflow: unknown join kind %d", int(kind))
}

// shuffleJoin aligns both tables to a common partitioning, then joins each
// partition pair locally with a hash join whose build side (right) is charged
// to Core Memory (crash scenario 3 for oversized partitions) and dropped from
// storage once built.
func (e *Engine) shuffleJoin(name string, left, right *Table) (*Table, error) {
	np := left.NumPartitions()
	r := right
	if right.NumPartitions() != np {
		// Both sides must agree on partitioning; re-shuffle the right side,
		// which nothing reads again.
		rp, err := e.Repartition(right.Name+".shuffled", right, np)
		right.Drop()
		if err != nil {
			return nil, err
		}
		defer rp.Drop()
		r = rp
	} else {
		// Aligned hash partitioning still moves each side's blocks to the
		// joining worker once in a real cluster; account the smaller side.
		e.counters.BytesShuffled.Add(min(left.MemBytes(), right.MemBytes()))
	}

	out := &Table{Name: name, engine: e, partitions: make([]*Partition, np)}
	err := e.runTasks(np, func(tc *TaskContext) error {
		node := e.nodeFor(tc.Part)
		buildRows, err := node.storage.touch(r.partitions[tc.Part])
		if err != nil {
			return err
		}
		buildBytes := rowsMemBytes(buildRows)
		if err := node.core.Alloc(buildBytes, ""); err != nil {
			return memory.Describe(err, fmt.Sprintf("hash-join build partition %d", tc.Part))
		}
		defer node.core.Free(buildBytes)

		build := make(map[int64]*Row, len(buildRows))
		for i := range buildRows {
			build[buildRows[i].ID] = &buildRows[i]
		}
		node.storage.drop(r.partitions[tc.Part])
		probeRows, err := node.storage.touch(left.partitions[tc.Part])
		if err != nil {
			return err
		}
		joined := make([]Row, 0, len(probeRows))
		for i := range probeRows {
			if match, ok := build[probeRows[i].ID]; ok {
				joined = append(joined, mergeRows(&probeRows[i], match))
			}
		}
		e.counters.RowsProcessed.Add(int64(len(probeRows)))
		p := newPartition(tc.Part, joined)
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

// broadcastJoin replicates the left (smaller) table to every node — charging
// each node's User Memory for the broadcast hash table — and probes it with
// the right table's partitions locally, dropping each once probed. This
// reproduces the paper's Figure 10 behavior: broadcast is faster at modest
// sizes but crashes as the broadcast side grows.
func (e *Engine) broadcastJoin(name string, small, large *Table) (*Table, error) {
	// The driver gathers the broadcast side first (a broadcast that kills
	// the driver is crash scenario 4).
	rows, bcastBytes, err := e.gather(small, func(int) string {
		return fmt.Sprintf("broadcast build of %s", small.Name)
	})
	if err != nil {
		return nil, err
	}
	// The driver serializes and ships the broadcast once per node.
	e.counters.BytesBroadcast.Add(bcastBytes * int64(len(e.nodes)))

	// Charge every node up front; release on completion.
	charged := make([]*node, 0, len(e.nodes))
	release := func() {
		for _, n := range charged {
			n.user.Free(bcastBytes)
		}
	}
	for _, n := range e.nodes {
		if err := n.user.Alloc(bcastBytes, ""); err != nil {
			release()
			return nil, memory.Describe(err, fmt.Sprintf("broadcast %s (%s)", small.Name, memory.FormatBytes(bcastBytes)))
		}
		charged = append(charged, n)
	}
	defer release()

	build := make(map[int64]*Row, len(rows))
	for i := range rows {
		build[rows[i].ID] = &rows[i]
	}

	out := &Table{Name: name, engine: e, partitions: make([]*Partition, large.NumPartitions())}
	err = e.runTasks(large.NumPartitions(), func(tc *TaskContext) error {
		node := e.nodeFor(tc.Part)
		probeRows, err := node.storage.touch(large.partitions[tc.Part])
		if err != nil {
			return err
		}
		joined := make([]Row, 0, len(probeRows))
		for i := range probeRows {
			if match, ok := build[probeRows[i].ID]; ok {
				joined = append(joined, mergeRows(match, &probeRows[i]))
			}
		}
		node.storage.drop(large.partitions[tc.Part])
		e.counters.RowsProcessed.Add(int64(len(probeRows)))
		p := newPartition(tc.Part, joined)
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
