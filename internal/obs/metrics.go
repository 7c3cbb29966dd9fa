package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one fixed metric dimension, e.g. {pool="storage"}.
type Label struct {
	Key, Value string
}

// DefBuckets are the default histogram bucket upper bounds in seconds,
// spanning sub-millisecond handler turnarounds to multi-second /run requests.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; updates to returned handles are
// lock-free (counters, gauges) or per-metric locked (histograms), so engine
// tasks can update metrics while an HTTP scrape renders them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is every metric sharing one name: same type, same help, one
// instance per label signature.
type family struct {
	name, help, typ string
	order           []string          // label signatures in registration order
	metrics         map[string]metric // label signature -> instance
}

// metric is one instance inside a family.
type metric interface {
	// write renders the instance's sample lines. name is the family name and
	// labels the pre-rendered label signature ("" or `{k="v",...}`).
	write(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the named family and the instance for labels,
// using mk to build a missing instance. It panics on a type conflict — that
// is a programming error that would silently corrupt the exposition.
func (r *Registry) lookup(name, help, typ string, labels []Label, mk func() metric, replace bool) metric {
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, metrics: make(map[string]metric)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if m, ok := f.metrics[sig]; ok {
		if !replace {
			return m
		}
	} else {
		f.order = append(f.order, sig)
	}
	m := mk()
	f.metrics[sig] = m
	return m
}

// Sample is one scalar series value read out of the registry: the family
// name, the rendered label signature ("" or `{k="v",...}`), and the value at
// read time. Histograms contribute their _sum and _count as two samples.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Key returns the sample's fully qualified series identity, name plus
// rendered labels — the stable key the time-series sampler and exporters
// index frames by.
func (s Sample) Key() string { return s.Name + s.Labels }

// Samples reads the current value of every series whose family name passes
// filter (nil = all), in family-name order then registration order. It is the
// programmatic analogue of WritePrometheus: counters and gauges yield one
// sample, func-backed series are invoked (a panicking callback yields NaN),
// histograms yield name_sum and name_count.
func (r *Registry) Samples(filter func(name string) bool) []Sample {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		if filter == nil || filter(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	type inst struct {
		name, sig string
		m         metric
	}
	var insts []inst
	for _, name := range names {
		f := r.families[name]
		for _, sig := range f.order {
			insts = append(insts, inst{name, sig, f.metrics[sig]})
		}
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(insts))
	for _, in := range insts {
		switch m := in.m.(type) {
		case *Counter:
			out = append(out, Sample{in.name, in.sig, float64(m.Value())})
		case *Gauge:
			out = append(out, Sample{in.name, in.sig, m.Value()})
		case funcMetric:
			out = append(out, Sample{in.name, in.sig, m.value()})
		case *Histogram:
			sum, count := m.sumCount()
			out = append(out,
				Sample{in.name + "_sum", in.sig, sum},
				Sample{in.name + "_count", in.sig, float64(count)})
		}
	}
	return out
}

// FindHistogram returns the registered histogram for name+labels, or nil.
// Unlike Histogram it never creates the instance, so probing (e.g. an SLO
// check over endpoints that may not have been hit yet) does not mint empty
// series into the exposition.
func (r *Registry) FindHistogram(name string, labels ...Label) *Histogram {
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return nil
	}
	h, _ := f.metrics[sig].(*Histogram)
	return h
}

// Counter returns the counter instance for name+labels, creating it on first
// use. Repeated calls with the same name and labels return the same handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.lookup(name, help, "counter", labels, func() metric { return &Counter{} }, false)
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a value-backed counter", name))
	}
	return c
}

// CounterFunc registers a counter whose value is read at scrape time.
// Re-registering the same name+labels replaces the callback, so a per-run
// component (e.g. a fresh dataflow engine) can take over the series.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, "counter", labels, func() metric { return funcMetric(fn) }, true)
}

// Gauge returns the gauge instance for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.lookup(name, help, "gauge", labels, func() metric { return &Gauge{} }, false)
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a value-backed gauge", name))
	}
	return g
}

// GaugeFunc registers a gauge read at scrape time; re-registration replaces
// the callback (same contract as CounterFunc).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, "gauge", labels, func() metric { return funcMetric(fn) }, true)
}

// Histogram returns the histogram instance for name+labels with the given
// bucket upper bounds (ascending; +Inf is implicit). Buckets are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	m := r.lookup(name, help, "histogram", labels, func() metric { return newHistogram(buckets) }, false)
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a histogram", name))
	}
	return h
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, families sorted by name, instances in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		order := append([]string(nil), f.order...)
		instances := make([]metric, len(order))
		for i, sig := range order {
			instances[i] = f.metrics[sig]
		}
		r.mu.Unlock()
		for i, m := range instances {
			m.write(&b, f.name, order[i])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Gauge is a settable float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(g.Value()))
}

// funcMetric reads its value at scrape time.
type funcMetric func() float64

// value invokes the callback with a panic guard: a func-backed series that
// panics (e.g. a gauge closure reading an engine that has since been closed)
// renders as NaN instead of taking down the whole scrape.
func (f funcMetric) value() (v float64) {
	defer func() {
		if recover() != nil {
			v = math.NaN()
		}
	}()
	return f()
}

func (f funcMetric) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(f.value()))
}

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // one per bound; the +Inf bucket is count minus their sum
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
}

// sumCount returns the histogram's sum and count.
func (h *Histogram) sumCount() (float64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum, h.count
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts the
// way PromQL's histogram_quantile does: find the bucket holding the q·count-th
// observation and interpolate linearly inside it. Observations beyond the
// last finite bound report that bound (the estimate saturates, it never
// invents a value above the largest bucket). ok is false when the histogram
// holds no observations.
func (h *Histogram) Quantile(q float64) (v float64, ok bool) {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]int64(nil), h.counts...)
	count := h.count
	h.mu.Unlock()
	if count == 0 || q <= 0 || q > 1 || len(bounds) == 0 {
		return 0, false
	}
	rank := q * float64(count)
	var cum int64
	for i, ub := range bounds {
		cum += counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			inBucket := float64(counts[i])
			if inBucket == 0 {
				return ub, true
			}
			frac := (rank - float64(cum-counts[i])) / inBucket
			return lower + (ub-lower)*frac, true
		}
	}
	// The rank falls in the +Inf bucket: saturate at the last finite bound.
	return bounds[len(bounds)-1], true
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]int64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()

	var cum int64
	for i, ub := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(labels, "le", formatValue(ub)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(labels, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// labelSignature renders labels (sorted by key) as `{k="v",...}`, or "".
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel appends one more label pair to a rendered signature (for
// histogram le labels).
func withLabel(sig, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if sig == "" {
		return "{" + extra + "}"
	}
	return sig[:len(sig)-1] + "," + extra + "}"
}

// escapeHelp escapes help text per the exposition format.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatValue renders a float sample the way Prometheus clients do.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
