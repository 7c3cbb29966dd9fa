package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Attr is one integer span attribute (rows, bytes, FLOPs, ...).
type Attr struct {
	Key   string
	Value int64
}

// Span is one timed stage of a run. Spans form a tree: StartChild nests, and
// Render prints the tree with durations and self-times. A span is safe for
// concurrent use — parallel stages may open children of the same parent.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// StartSpan opens a root span starting now.
func StartSpan(name string) *Span { return StartSpanAt(name, time.Now()) }

// StartSpanAt opens a root span with an explicit start time (deterministic
// trees for tests and for replaying recorded timings).
func StartSpanAt(name string, start time.Time) *Span {
	return &Span{name: name, start: start}
}

// StartChild opens a child span starting now.
func (s *Span) StartChild(name string) *Span { return s.StartChildAt(name, time.Now()) }

// StartChildAt opens a child span with an explicit start time.
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	c := &Span{name: name, start: start}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span finished now. A second End is a no-op.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt marks the span finished at an explicit time.
func (s *Span) EndAt(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		s.end = t
	}
}

// Name returns the span's stage label.
func (s *Span) Name() string { return s.name }

// Start returns the span's start time.
func (s *Span) Start() time.Time { return s.start }

// EndTime returns the span's end time and whether it has ended. A live
// sampler uses this to tell the currently-open stage from finished ones.
func (s *Span) EndTime() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end, !s.end.IsZero()
}

// Duration returns the span's elapsed time (up to now if still open).
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// SetAttr records an integer attribute. Setting an existing key overwrites.
func (s *Span) SetAttr(key string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// Attr returns the attribute's value and whether it is set.
func (s *Span) Attr(key string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return 0, false
}

// Attrs returns a copy of the span's attributes in set order.
func (s *Span) Attrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the span's children in start order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// SelfTime returns the span's duration minus its children's durations,
// floored at zero (children of parallel stages may overlap the parent
// arbitrarily).
func (s *Span) SelfTime() time.Duration {
	d := s.Duration()
	for _, c := range s.Children() {
		d -= c.Duration()
	}
	if d < 0 {
		return 0
	}
	return d
}

// Walk visits the span and its descendants depth-first in start order.
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	s.walk(fn, 0)
}

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	fn(s, depth)
	for _, c := range s.Children() {
		c.walk(fn, depth+1)
	}
}

// Render prints the span tree: one line per span with its duration, its
// self-time when it has children, and its attributes.
//
//	run              41ms  (self 2ms)
//	  ingest          4ms  rows=2000
//	  infer:fc6      22ms  flops=123456789
func (s *Span) Render(w io.Writer) {
	// First pass: longest "indent + name" width aligns the duration column.
	width := 0
	s.Walk(func(sp *Span, depth int) {
		if n := 2*depth + len(sp.name); n > width {
			width = n
		}
	})
	s.Walk(func(sp *Span, depth int) {
		label := strings.Repeat("  ", depth) + sp.name
		line := fmt.Sprintf("%-*s  %9s", width, label, formatDuration(sp.Duration()))
		if len(sp.Children()) > 0 {
			line += fmt.Sprintf("  (self %s)", formatDuration(sp.SelfTime()))
		}
		for _, a := range sp.Attrs() {
			line += fmt.Sprintf("  %s=%d", a.Key, a.Value)
		}
		fmt.Fprintln(w, line)
	})
}

// formatDuration rounds a duration to a readable precision.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(time.Microsecond).String()
}
