// Package export renders a finished run's observability — the span tree in
// core.Result.Trace and the sampled time series in core.Result.Series — in
// interchange formats external tools load directly: Chrome trace-event JSON
// (chrome://tracing, Perfetto), OTLP-style JSON spans, and CSV/JSON time
// series. All writers are deterministic for a deterministic input (stable
// field order, stable series order, explicit-timestamp span trees encode
// byte-for-byte identically), which is what lets golden tests lock the wire
// shapes.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sampler"
)

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array. Field order is the wire order (locked by golden tests).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds since trace start
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the format's object form (Perfetto accepts both the bare
// array and this object; the object also carries the display unit).
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteTrace renders the span tree in the named trace format: "chrome"
// (WriteChromeTrace, with rec's counter tracks) or "otlp" (WriteOTLP). Any
// other name is an error and nothing is written.
func WriteTrace(w io.Writer, format string, root *obs.Span, rec *sampler.Recording) error {
	switch format {
	case "chrome":
		return WriteChromeTrace(w, root, rec)
	case "otlp":
		return WriteOTLP(w, root)
	}
	return fmt.Errorf("unknown trace format %q (chrome or otlp)", format)
}

// WriteChromeTrace renders the span tree as Chrome trace-event JSON: one
// complete ("X") event per span, nested by time containment on a single
// track, plus — when rec is non-nil — one counter ("C") track per sampled
// series. Load the file in chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, root *obs.Span, rec *sampler.Recording) error {
	if root == nil {
		return fmt.Errorf("export: nil trace")
	}
	base := root.Start()
	end := lastEnd(root)
	micros := func(t time.Time) int64 { return t.Sub(base).Microseconds() }

	var events []chromeEvent
	root.Walk(func(sp *obs.Span, _ int) {
		spEnd, ended := sp.EndTime()
		if !ended {
			spEnd = end
		}
		ev := chromeEvent{
			Name: sp.Name(), Cat: "stage", Ph: "X",
			Ts: micros(sp.Start()), Dur: spEnd.Sub(sp.Start()).Microseconds(),
			Pid: 1, Tid: 1,
		}
		if attrs := sp.Attrs(); len(attrs) > 0 {
			ev.Args = make(map[string]any, len(attrs))
			for _, a := range attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	})
	if rec != nil {
		for _, key := range rec.SeriesKeys() {
			for _, f := range rec.Frames {
				v, ok := f.Value(key)
				if !ok {
					continue
				}
				events = append(events, chromeEvent{
					Name: key, Ph: "C", Ts: micros(f.T), Pid: 1, Tid: 1,
					Args: map[string]any{"value": v},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{DisplayTimeUnit: "ms", TraceEvents: events})
}

// lastEnd returns the latest end time anywhere in the tree (open spans are
// clamped to it), falling back to the root's start for a tree that never
// ended.
func lastEnd(root *obs.Span) time.Time {
	end := root.Start()
	root.Walk(func(sp *obs.Span, _ int) {
		if t, ok := sp.EndTime(); ok && t.After(end) {
			end = t
		}
	})
	return end
}
