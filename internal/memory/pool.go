package memory

import (
	"fmt"
	"sync"
)

// Pool is a capacity-checked byte allocator for one memory region. All the
// substrate systems account their allocations against pools so that the
// paper's crash scenarios surface as typed OOMError values instead of real
// process deaths.
type Pool struct {
	region   Region
	scenario CrashScenario

	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64
}

// NewPool creates a pool with the given capacity. Allocation failures are
// reported as the given crash scenario.
func NewPool(region Region, scenario CrashScenario, capacity int64) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	return &Pool{region: region, scenario: scenario, capacity: capacity}
}

// Capacity returns the pool's capacity in bytes.
func (p *Pool) Capacity() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity
}

// Used returns the bytes currently allocated.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Peak returns the high-water mark of allocated bytes.
func (p *Pool) Peak() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Alloc reserves n bytes, or returns an *OOMError carrying the pool's crash
// scenario. Zero and negative requests are no-ops.
func (p *Pool) Alloc(n int64, detail string) error {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used+n > p.capacity {
		return &OOMError{
			Region:   p.region,
			Scenario: p.scenario,
			Need:     n,
			Avail:    p.capacity - p.used,
			Detail:   detail,
		}
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

// Free releases n bytes. Freeing more than allocated is a programming error
// and panics (it would silently corrupt all later crash accounting).
func (p *Pool) Free(n int64) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.used {
		panic(fmt.Sprintf("memory: freeing %d bytes from %s pool with only %d used", n, p.region, p.used))
	}
	p.used -= n
}

// TryAllocOrEvict reserves n bytes, calling evict to release space while the
// pool is full. evict returns the number of bytes it released (0 when nothing
// remains evictable). This models Spark's moving Storage–Core boundary: Core
// borrows from Storage by evicting cached partitions to disk.
func (p *Pool) TryAllocOrEvict(n int64, detail string, evict func(need int64) int64) error {
	for {
		err := p.Alloc(n, detail)
		if err == nil {
			return nil
		}
		if evict == nil {
			return err
		}
		oom, _ := IsOOM(err)
		released := evict(oom.Need - oom.Avail)
		if released <= 0 {
			return err
		}
	}
}
