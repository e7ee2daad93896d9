// metrics.go is a self-contained, dependency-free metrics substrate in the
// expvar spirit: atomic counters, gauges and fixed-bucket histograms that a
// Registry renders in the Prometheus text exposition format. mawilabd
// scrapes are plain GETs of /metrics; nothing here imports anything beyond
// the standard library.
package serve

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter discards
// increments, so an optional counter needs no guard at its call sites.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefBuckets are the default latency buckets in seconds, Prometheus's
// classic spread: 1ms to 10s, then +Inf implicitly.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// JobBuckets are the whole-job latency buckets in seconds. Jobs run a full
// pipeline over a day-scale trace, so their spread sits orders of magnitude
// above the per-stage DefBuckets: sharing the stage buckets would pile
// every real job into the top bucket and flatten the p99.
var JobBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// Histogram counts observations into fixed cumulative buckets and tracks
// their sum; all operations are lock-free and safe for concurrent use.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the average observation, or 0 before the first.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Family is a set of metrics of one kind — *Counter or *Histogram — keyed
// by one label's value.
type Family[M any] struct {
	newM     func() *M
	mu       sync.Mutex
	children map[string]*M
}

func newFamily[M any](newM func() *M) *Family[M] {
	return &Family[M]{newM: newM, children: make(map[string]*M)}
}

// With returns the child for the label value, creating it on first use. A
// nil *Family returns a nil child; a nil *Counter discards increments.
func (f *Family[M]) With(value string) *M {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[value]
	if !ok {
		m = f.newM()
		f.children[value] = m
	}
	return m
}

// sortedKeys returns the label values seen so far, ascending: the order a
// scrape renders the children in.
func (f *Family[M]) sortedKeys() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Sorted(maps.Keys(f.children))
}

// metric is one registered family, renderable in exposition format.
type metric struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

// Registry holds metric families in registration order and renders them in
// the Prometheus text exposition format (version 0.0.4) — the format every
// Prometheus-compatible scraper, including promtool and victoria-metrics,
// ingests.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter. Counter names end in _total
// by convention.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, help: help, typ: "counter", write: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	}})
	return c
}

// CounterVec registers and returns a counter family keyed by label.
func (r *Registry) CounterVec(name, help, label string) *Family[Counter] {
	f := newFamily(func() *Counter { return &Counter{} })
	r.register(metric{name: name, help: help, typ: "counter", write: func(w io.Writer, n string) {
		for _, value := range f.sortedKeys() {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", n, label, value, f.With(value).Value())
		}
	}})
	return f
}

// GaugeFunc registers a gauge whose value is read at scrape time — the fit
// for instantaneous facts the owner already tracks, like a queue's length.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.register(metric{name: name, help: help, typ: "gauge", write: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, f())
	}})
}

// Histogram registers and returns a histogram with the given bucket upper
// bounds in ascending order (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(metric{name: name, help: help, typ: "histogram", write: func(w io.Writer, n string) {
		writeHistogram(w, n, "", "", h)
	}})
	return h
}

// HistogramVec registers and returns a histogram family keyed by label.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *Family[Histogram] {
	f := newFamily(func() *Histogram { return newHistogram(buckets) })
	r.register(metric{name: name, help: help, typ: "histogram", write: func(w io.Writer, n string) {
		for _, value := range f.sortedKeys() {
			writeHistogram(w, n, label, value, f.With(value))
		}
	}})
	return f
}

// writeHistogram renders one histogram child: cumulative _bucket series
// (with the mandatory +Inf), then _sum and _count.
func writeHistogram(w io.Writer, name, label, value string, h *Histogram) {
	pre := ""
	if label != "" {
		pre = fmt.Sprintf("%s=%q,", label, value)
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, pre, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, pre, cum)
	suffix := ""
	if label != "" {
		suffix = fmt.Sprintf("{%s=%q}", label, value)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
	// _count must equal the +Inf bucket — the exposition-format invariant
	// scrapers check. Rendering the separate count atomic here could
	// disagree with the bucket sum when an Observe lands between the two
	// reads (buckets increment first), so the count is derived from the
	// same cumulative walk that produced the +Inf line.
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeExposition renders every registered family in registration order.
func (r *Registry) writeExposition(w io.Writer) {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		m.write(w, m.name)
	}
}

// ServeHTTP exposes the registry as a Prometheus scrape target.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.writeExposition(w)
}
