package dataflow

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// Config describes the (simulated) cluster an Engine runs on: the worker
// count, per-worker core slots, the memory apportionment chosen by the Vista
// optimizer (or a baseline), and the PD system's memory-model kind.
type Config struct {
	// Nodes is the number of worker nodes.
	Nodes int
	// CoresPerNode is the degree of parallelism per worker (Table 1: cpu).
	CoresPerNode int
	// Kind selects Spark-like (spillable) or Ignite-like (memory-only)
	// storage behavior.
	Kind memory.SystemKind
	// Apportion is the per-worker memory apportionment.
	Apportion memory.Apportionment
	// DriverMemory bounds the driver's collect buffers (crash scenario 4).
	DriverMemory int64
	// SpillDir is where spill files go; empty means a fresh temp dir, made
	// at the first spill.
	SpillDir string
	// DefaultFormat is the persistence format for cached partitions
	// (Table 1(B): pers).
	DefaultFormat PersistFormat
}

// Engine is the dataflow runtime: a driver plus Nodes workers, each with its
// own memory pools and storage cache. Every operation runs at most
// CoresPerNode tasks at a time on each node; operations issued concurrently
// on one engine each get that many.
type Engine struct {
	cfg      Config
	nodes    []*node
	driver   *memory.Pool
	counters Counters

	mu     sync.Mutex
	closed bool
	// spillDir is Config.SpillDir, or the engine's own temp dir once the
	// first spill made it (ownDir); "" until then.
	spillDir string
	ownDir   bool
	// runCtx is the run-scoped cancellation context (SetContext); nil means
	// never cancelled.
	runCtx context.Context
	// spillFiles tracks live spill files (guarded by mu) so Close can
	// remove any that error paths stranded — a run that dies mid-plan in a
	// caller-provided SpillDir must not leave orphan part-*.spill files.
	spillFiles map[string]struct{}
}

// node is one worker: its memory pools and partition cache. Its CoresPerNode
// task slots are the workers each operation starts for it (runTasks).
type node struct {
	id      int
	user    *memory.Pool
	core    *memory.Pool
	dl      *memory.Pool
	storage *storageCache
}

// NewEngine validates cfg and builds the cluster.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("dataflow: need positive nodes (%d) and cores (%d)", cfg.Nodes, cfg.CoresPerNode)
	}
	if cfg.DriverMemory <= 0 {
		cfg.DriverMemory = memory.GB(4)
	}
	e := &Engine{cfg: cfg, spillDir: cfg.SpillDir, spillFiles: make(map[string]struct{})}
	e.driver = memory.NewPool(memory.Driver, memory.DriverOOM, cfg.DriverMemory)
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:   i,
			user: memory.NewPool(memory.User, memory.InsufficientUser, cfg.Apportion.User),
			core: memory.NewPool(memory.Core, memory.LargePartition, cfg.Apportion.Core),
			dl:   memory.NewPool(memory.DLExecution, memory.DLBlowup, cfg.Apportion.DLExecution),
		}
		n.storage = newStorageCache(e, cfg.Apportion.Storage)
		e.nodes = append(e.nodes, n)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetContext attaches a run-scoped cancellation context. Once ctx is
// cancelled every subsequent operation (and every operation in flight) fails
// with ctx's error: no worker takes another task, while running tasks
// finish. Safe to call once, before the first
// operation.
func (e *Engine) SetContext(ctx context.Context) {
	e.mu.Lock()
	e.runCtx = ctx
	e.mu.Unlock()
}

// context returns the attached run context, or context.Background().
func (e *Engine) context() context.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runCtx == nil {
		return context.Background()
	}
	return e.runCtx
}

// Counters returns the engine's instrumentation counters.
func (e *Engine) Counters() *Counters { return &e.counters }

// DLPool returns worker nodeID's DL Execution Memory pool; the DL bridge
// (internal/dl) charges model replicas against it.
func (e *Engine) DLPool(nodeID int) *memory.Pool { return e.nodes[nodeID].dl }

// UserPool returns worker nodeID's User Memory pool.
func (e *Engine) UserPool(nodeID int) *memory.Pool { return e.nodes[nodeID].user }

// DriverPool returns the driver's memory pool.
func (e *Engine) DriverPool() *memory.Pool { return e.driver }

// spillDirLocked returns the directory spill files go to, making the
// engine's own temp dir on the first call when Config.SpillDir is empty: a
// run that never spills never touches the file system. Callers hold e.mu.
func (e *Engine) spillDirLocked() (string, error) {
	if e.spillDir != "" {
		return e.spillDir, nil
	}
	if e.closed {
		return "", fmt.Errorf("dataflow: spill after the engine closed")
	}
	d, err := os.MkdirTemp("", "vista-spill-*")
	if err != nil {
		return "", fmt.Errorf("dataflow: spill dir: %w", err)
	}
	e.spillDir, e.ownDir = d, true
	return d, nil
}

// Close releases spill files and (if owned) the spill directory. Spill files
// still live at close time — tables leaked by error paths — are removed
// individually, so a shared SpillDir is left clean without touching files
// that belong to other engines.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	for path := range e.spillFiles {
		os.Remove(path)
	}
	e.spillFiles = nil
	if e.ownDir {
		return os.RemoveAll(e.spillDir)
	}
	return nil
}

// noteSpillLocked and noteUnspillLocked maintain the live spill-file set;
// callers hold e.mu.
func (e *Engine) noteSpillLocked(path string) {
	if e.spillFiles != nil && path != "" {
		e.spillFiles[path] = struct{}{}
	}
}

func (e *Engine) noteUnspillLocked(path string) {
	if e.spillFiles != nil {
		delete(e.spillFiles, path)
	}
}

// nodeFor maps a partition index to its owning worker.
func (e *Engine) nodeFor(partIndex int) *node {
	return e.nodes[partIndex%len(e.nodes)]
}

// TaskContext is handed to UDFs: it exposes the owning node's pools and the
// engine counters so user code (CNN inference, downstream training)
// participates in memory accounting and instrumentation.
type TaskContext struct {
	Engine *Engine
	NodeID int
	Part   int
}

// AddFLOPs records floating-point work done by the UDF.
func (tc *TaskContext) AddFLOPs(n int64) { tc.Engine.counters.FLOPs.Add(n) }

// runTasks executes fn once per task, task i on node i%Nodes. Each node runs
// its tasks in index order on min(CoresPerNode, its task count) workers, so
// one operation runs at most CoresPerNode tasks at a time on a node; core's
// executor issues operations one at a time, so that is the node's bound. The
// first error stops every worker from taking another task, and tasks already
// running complete: no UDF aborts cooperatively. A run-scoped context
// attached via SetContext cancels the same way: its error becomes the
// operation's error.
func (e *Engine) runTasks(tasks int, fn func(tc *TaskContext) error) error {
	if tasks == 0 {
		return nil
	}
	ctx := e.context()
	if err := ctx.Err(); err != nil {
		return err
	}
	var (
		wg sync.WaitGroup
		// first is the first failure; once it is set no task starts.
		first atomic.Pointer[error]
		// one allocation for every task's context, not one per task
		tcs = make([]TaskContext, tasks)
		// taken[k] counts the tasks node k's workers have taken.
		taken = make([]atomic.Int32, min(len(e.nodes), tasks))
	)
	fail := func(err error) { first.CompareAndSwap(nil, &err) }
	// Run-level cancellation takes the failure path, so one check covers both
	// "a task failed" and "the whole run was cancelled". The callback is
	// deregistered with the operation.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { fail(ctx.Err()) })
		defer stop()
	}
	for k := range taken {
		nodeTasks := (tasks - k + len(e.nodes) - 1) / len(e.nodes)
		for range min(e.cfg.CoresPerNode, nodeTasks) {
			wg.Add(1)
			// One of node k's workers: it takes the node's tasks k + j·Nodes
			// in index order until none is left or the operation failed.
			go func() {
				defer wg.Done()
				for first.Load() == nil {
					i := k + int(taken[k].Add(1)-1)*len(e.nodes)
					if i >= tasks {
						return
					}
					e.counters.TasksRun.Add(1)
					tc := &tcs[i]
					*tc = TaskContext{Engine: e, NodeID: k, Part: i}
					if err := fn(tc); err != nil {
						fail(err)
					}
				}
			}()
		}
	}
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}
