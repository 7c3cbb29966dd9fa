package dataflow

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSetContextPreCancelled verifies that an already-cancelled run context
// fails every operation up front, before any task is dispatched.
func TestSetContextPreCancelled(t *testing.T) {
	e := newTestEngine(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)

	if _, err := e.CreateTable("t", makeRows(16, 4), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("CreateTable after cancel = %v, want context.Canceled", err)
	}
	if got := e.Counters().TasksRun.Load(); got != 0 {
		t.Errorf("cancelled engine ran %d tasks, want 0", got)
	}
}

// TestSetContextCancelMidOperation cancels the run context while UDF tasks
// are blocked on it: the operation must return the context's error, and
// dropping the inputs must drain the pools to zero.
func TestSetContextCancelMidOperation(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tbl, err := e.CreateTable("t", makeRows(16, 4), 4)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)

	started := make(chan struct{}, 16)
	// Cancel once at least one task is provably inside the UDF.
	go func() {
		<-started
		cancel()
	}()
	out, err := e.MapPartitions("blocked", tbl, func(tc *TaskContext, rows []Row) ([]Row, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if out != nil {
		out.Drop()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MapPartitions = %v, want context.Canceled", err)
	}

	tbl.Drop()
	for i, n := range e.nodes {
		if used := n.storage.pool.Used(); used != 0 {
			t.Errorf("node %d storage pool holds %d bytes after cancel+drop", i, used)
		}
		if used := n.user.Used(); used != 0 {
			t.Errorf("node %d user pool holds %d bytes after cancel+drop", i, used)
		}
	}

	// The engine stays cancelled: later operations fail fast too.
	if _, err := e.CreateTable("t2", makeRows(4, 2), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("post-cancel CreateTable = %v, want context.Canceled", err)
	}
}

// TestSetContextDeadline verifies deadline expiry surfaces as
// context.DeadlineExceeded.
func TestSetContextDeadline(t *testing.T) {
	e := newTestEngine(t, testConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	e.SetContext(ctx)
	<-ctx.Done()
	if _, err := e.CreateTable("t", makeRows(4, 2), 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CreateTable after deadline = %v, want context.DeadlineExceeded", err)
	}
}
