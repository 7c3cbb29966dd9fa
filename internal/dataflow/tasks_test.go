package dataflow

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunTasksFailureStopsEveryNode fails node 0's task while node 1's task
// is still running: no task starts after the failure, the straggler runs to
// completion before runTasks returns, and the failure is the operation's
// error.
func TestRunTasksFailureStopsEveryNode(t *testing.T) {
	cfg := testConfig()
	cfg.CoresPerNode = 1
	e := newTestEngine(t, cfg)

	boom := errors.New("boom")
	straggling := make(chan struct{})
	failing := make(chan struct{})
	var finished, late atomic.Bool
	err := e.runTasks(3, func(tc *TaskContext) error {
		switch tc.Part {
		case 0: // node 0 fails while node 1's task runs
			<-straggling
			close(failing)
			return boom
		case 1: // node 1's straggler outlives the failure
			close(straggling)
			<-failing
			finished.Store(true)
			return nil
		default: // node 0's next task
			late.Store(true)
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("runTasks error = %v, want boom", err)
	}
	if late.Load() {
		t.Error("a task started after the operation failed")
	}
	if !finished.Load() {
		t.Error("runTasks returned before the straggler finished")
	}
	if got := e.Counters().TasksRun.Load(); got != 2 {
		t.Errorf("TasksRun = %d, want 2", got)
	}
}

// TestRunTasksCoresBound: with c cores and 2c tasks per node, each node runs
// exactly c tasks at a time, never c+1. Each round of c tasks on a node waits
// at a barrier until all c of them run, so a node with fewer workers
// deadlocks and one with more runs c+1 at once.
func TestRunTasksCoresBound(t *testing.T) {
	const c, rounds = 3, 2
	cfg := testConfig()
	cfg.CoresPerNode = c
	e := newTestEngine(t, cfg)

	type nodeState struct {
		running, peak atomic.Int32
		arrived       [rounds]atomic.Int32
		barrier       [rounds]chan struct{}
	}
	st := make([]nodeState, cfg.Nodes)
	for k := range st {
		for r := range st[k].barrier {
			st[k].barrier[r] = make(chan struct{})
		}
	}
	var misplaced atomic.Bool
	err := e.runTasks(cfg.Nodes*c*rounds, func(tc *TaskContext) error {
		misplaced.CompareAndSwap(false, tc.NodeID != tc.Part%cfg.Nodes)
		s := &st[tc.NodeID]
		n := s.running.Add(1)
		for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
		}
		// Workers take a node's tasks in index order, so its j-th task is
		// in round j/c.
		r := tc.Part / cfg.Nodes / c
		if s.arrived[r].Add(1) == c {
			close(s.barrier[r])
		}
		<-s.barrier[r]
		s.running.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if misplaced.Load() {
		t.Error("a task ran off node Part % Nodes")
	}
	for k := range st {
		if got := st[k].peak.Load(); got != c {
			t.Errorf("node %d ran %d tasks at once, want %d", k, got, c)
		}
	}
}

// TestRunTasksNodesProgressIndependently: node 0's only core stays busy until
// node 1 has run its second task, so node 1 must take its tasks while node 0
// is occupied. A dispatcher that hands out tasks in global index order
// deadlocks here, waiting on node 0 for task 2.
func TestRunTasksNodesProgressIndependently(t *testing.T) {
	cfg := testConfig()
	cfg.CoresPerNode = 1
	e := newTestEngine(t, cfg)

	node1Done := make(chan struct{})
	err := e.runTasks(4, func(tc *TaskContext) error {
		switch tc.Part {
		case 0:
			<-node1Done
		case 3:
			close(node1Done)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().TasksRun.Load(); got != 4 {
		t.Errorf("TasksRun = %d, want 4", got)
	}
}
