package main

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/sampler"
)

// runRecord is one completed /run's exported artifacts, keyed by the run ID
// returned in the /run response.
type runRecord struct {
	seq    uint64
	id     string
	trace  *obs.Span
	series *sampler.Recording
}

// runRing retains the last N completed runs' traces and time series for
// GET /trace/{format}?run=ID and GET /timeseries?run=ID.
//
// Sequence numbers are assigned when a run starts executing (lifecycle.Outcome's
// RunSeq) but records land when it completes (complete), so slow runs may
// finish out of order.
// "Latest" is therefore the stored record with the highest sequence — a slow
// old run completing after a newer one must not shadow it.
type runRing struct {
	mu   sync.Mutex
	cap  int
	recs []*runRecord // completed runs, unordered; bounded by cap
}

func newRunRing(capacity int) *runRing {
	if capacity < 1 {
		capacity = 1
	}
	return &runRing{cap: capacity}
}

// runIDFor renders a run's public ID from its lifecycle sequence number.
func runIDFor(seq uint64) string { return fmt.Sprintf("run-%d", seq) }

// complete stores one finished run's artifacts, evicting the oldest record
// when the ring is full.
func (r *runRing) complete(seq uint64, trace *obs.Span, series *sampler.Recording) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, &runRecord{
		seq: seq, id: runIDFor(seq), trace: trace, series: series,
	})
	if len(r.recs) > r.cap {
		oldest := 0
		for i, rec := range r.recs {
			if rec.seq < r.recs[oldest].seq {
				oldest = i
			}
		}
		r.recs = append(r.recs[:oldest], r.recs[oldest+1:]...)
	}
}

// get returns the record with the given public ID, or nil.
func (r *runRing) get(id string) *runRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range r.recs {
		if rec.id == id {
			return rec
		}
	}
	return nil
}

// latest returns the stored record with the highest sequence number, or nil
// when no run has completed yet.
func (r *runRing) latest() *runRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *runRecord
	for _, rec := range r.recs {
		if best == nil || rec.seq > best.seq {
			best = rec
		}
	}
	return best
}

// ids lists stored run IDs, newest first — served by the trace/timeseries
// 404 body so callers can discover what is still retained.
func (r *runRing) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := append([]*runRecord(nil), r.recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq > recs[j].seq })
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = rec.id
	}
	return out
}
