package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one bench-owned interval around a call into a layer of the
// program. Spans of one request share Request; Parent is the span that
// caused this one (0 = none). Times are nanoseconds since the recorder's
// epoch.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the traced run writes them out. It
// is safe for the concurrent pairs of a lockstep workload.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its ID for End and for children.
func (r *Recorder) Start(name string, parent, request int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, StartNs: now})
	return id
}

func (r *Recorder) End(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// Add records a span whose interval was measured elsewhere: the engine's
// own stage spans, read from the run result.
func (r *Recorder) Add(name string, parent, request int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes maps each span's ID to its duration minus the part of its
// interval that its child spans cover. Overlapping children count once and
// a child's excess beyond its parent's interval is ignored.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, at := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, at), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}
