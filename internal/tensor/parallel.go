package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the bounded compute-worker pool behind ParallelFor,
// which internal/dl uses to infer the rows of a batch side by side.
// Parallelism is gated by a global token semaphore rather than per-call
// goroutine fan-out so that nested regions and concurrent server runs
// together never exceed the configured worker count: a region that cannot
// acquire tokens simply runs inline on its caller's goroutine.

// convWorkers is the process-wide cap on extra compute goroutines; 1 means
// fully serial execution.
var convWorkers atomic.Int64

// computeSem holds convWorkers-1 tokens; each token is one helper goroutine
// allowed to run concurrently with its caller.
var (
	computeSemMu sync.Mutex
	computeSem   chan struct{}
)

func init() {
	SetConvWorkers(runtime.GOMAXPROCS(0))
}

// SetConvWorkers sets the process-wide compute parallelism of CNN inference
// (the batch-row workers). n <= 0 resets to runtime.GOMAXPROCS(0). In-flight
// regions keep tokens they already hold; the new cap applies to subsequent
// acquisitions.
func SetConvWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	computeSemMu.Lock()
	defer computeSemMu.Unlock()
	convWorkers.Store(int64(n))
	computeSem = make(chan struct{}, n-1)
	for i := 0; i < n-1; i++ {
		computeSem <- struct{}{}
	}
}

// ConvWorkers returns the current compute-worker cap.
func ConvWorkers() int { return int(convWorkers.Load()) }

// acquireWorkers grabs up to want helper tokens without blocking and returns
// the semaphore they must be returned to along with how many were obtained.
func acquireWorkers(want int) (chan struct{}, int) {
	computeSemMu.Lock()
	sem := computeSem
	computeSemMu.Unlock()
	got := 0
	for got < want {
		select {
		case <-sem:
			got++
		default:
			return sem, got
		}
	}
	return sem, got
}

// ParallelFor runs fn(i) for every i in [0, n), using the caller's goroutine
// plus as many pool workers as are free (never more than n-1). fn must be
// safe for concurrent invocation on distinct i; iteration order is undefined.
func ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || ConvWorkers() <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem, helpers := acquireWorkers(n - 1)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	if helpers == 0 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer func() {
				sem <- struct{}{}
				wg.Done()
			}()
			work()
		}()
	}
	work()
	wg.Wait()
}
