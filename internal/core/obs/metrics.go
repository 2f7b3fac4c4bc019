// Package obs is the fleet-telemetry layer: a dependency-free metrics
// registry (counters, gauges, histograms with atomic hot paths) that
// the dispatcher, result store, and campaign coordinator publish
// into, plus run-level tracing in Chrome trace_event form and shared
// HTTP instrumentation middleware.
//
// The registry is exposition-agnostic: WritePrometheus renders the
// Prometheus text format `eptest -serve-coord` serves at GET /metrics,
// and WriteJSON renders the machine-readable snapshot workers dump via
// `-metrics-json FILE`. Metric names, label sets, and the span
// taxonomy are catalogued in docs/OBSERVABILITY.md.
//
// Handles returned by Counter/Gauge/Histogram are cheap to hold and
// safe for concurrent use; instrumentation sites resolve them once and
// update them lock-free afterwards. Every method on a nil *Registry,
// nil *Counter, nil *Gauge, or nil *Histogram is a no-op, so callers
// can thread an optional registry through without guarding each site.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType discriminates the registry's families.
type metricType int

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

// String renders the type in Prometheus TYPE-line vocabulary.
func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labelled instance of a family: exactly one of the
// three concrete metric kinds.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name, help string
	typ        metricType
	buckets    []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series // label signature -> series
	order  []string           // signatures in first-registration order
}

// Label is one metric dimension.
type Label struct{ Key, Value string }

// Registry holds metric families. The zero value is not usable; build
// one with NewRegistry. Lookup methods (Counter, Gauge, Histogram) are
// safe for concurrent use but take locks — resolve handles once per
// instrumentation site, not per event.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in first-registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labels pairs up a variadic "k1, v1, k2, v2" list. An odd trailing key
// gets an empty value rather than panicking — instrumentation must
// never take the process down.
func labels(kv []string) []Label {
	out := make([]Label, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		l := Label{Key: kv[i]}
		if i+1 < len(kv) {
			l.Value = kv[i+1]
		}
		out = append(out, l)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// signature renders a sorted label list as the series map key and the
// exposition form: `k1="v1",k2="v2"`.
func signature(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// getFamily returns (creating if needed) the family for name. A name
// re-registered with a different type keeps its first type — the
// mismatch would be a programming error, and exposition simply shows
// the original family.
func (r *Registry) getFamily(name, help string, typ metricType, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// getSeries returns (creating if needed) the series for the label set.
func (f *family) getSeries(ls []Label) *series {
	sig := signature(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: ls}
		switch f.typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = newHistogram(f.buckets)
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns the counter registered under name and the label
// pairs (given as "k1", "v1", "k2", "v2", ...), creating it at zero on
// first use. help is recorded on the family's first registration.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, typeCounter, nil).getSeries(labels(kv)).c
}

// Gauge returns the gauge registered under name and the label pairs,
// creating it at zero on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, typeGauge, nil).getSeries(labels(kv)).g
}

// Histogram returns the histogram registered under name and the label
// pairs, creating it on first use with the given bucket upper bounds
// (ascending; the implicit +Inf bucket is added automatically). Later
// lookups of the same family reuse the first registration's buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, typeHistogram, buckets).getSeries(labels(kv)).h
}

// Counter is a monotonically increasing metric. The zero value is
// usable; all methods are atomic and nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is usable;
// all methods are atomic and nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram observes a distribution over fixed bucket boundaries.
// Observations and reads are lock-free: per-bucket counts and the
// running sum use atomics, so concurrent Observe calls never contend
// on a lock. Snapshots are not atomic across fields — a scrape racing
// observations may see a sum slightly ahead of the counts — which is
// the standard Prometheus client trade-off.
type Histogram struct {
	bounds []float64      // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64 // one per bound, plus the +Inf bucket at the end
	sum    atomic.Uint64  // math.Float64bits of the running sum
	count  atomic.Int64
}

// DefBuckets is a general-purpose latency bucket ladder in seconds,
// spanning sub-millisecond simulated-kernel runs to multi-second
// matrix campaigns.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// newHistogram builds a histogram over the bucket upper bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; equal values belong to
	// the bucket (Prometheus buckets are upper-inclusive: le).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the total of every observed sample.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Buckets returns the bucket upper bounds and their cumulative counts
// (Prometheus le semantics); the final pair is +Inf and Count().
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	cumulative = make([]int64, len(h.counts))
	var acc int64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}
