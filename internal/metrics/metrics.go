// Package metrics is the engine-wide observability registry: a
// dependency-free set of counters, gauges, and fixed-bucket histograms
// with Prometheus text exposition and an in-band snapshot API (the SHOW
// METRICS statement).
//
// Counters are sharded across cache-line-padded cells so hot-path
// increments from concurrent statements do not contend on one cache line;
// reads sum the shards. Gauges and histogram sums store float64 bits in a
// single atomic word. Function-backed collectors (CounterFunc, GaugeFunc)
// read an existing source of truth — e.g. the zoom-in cache's own stats —
// at scrape time instead of double-bookkeeping.
//
// Metric names follow the taxonomy insightnotes_<layer>_<name>{label} and
// are validated at registration; every name used by the engine is declared
// once in names.go (enforced by internal/lint).
//
// Registration is get-or-create: asking twice for the same name with the
// same shape returns the same collector, so independent subsystems sharing
// one registry (engine, server) wire themselves up without coordination.
// Conflicting re-registration (different kind, help, label, or buckets) is
// a programming error and panics.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Metric kinds as rendered in the TYPE line and the SHOW METRICS output.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// nameRE is the insightnotes_<layer>_<name> naming scheme.
var nameRE = regexp.MustCompile(`^insightnotes_[a-z][a-z0-9]*_[a-z][a-z0-9_]*$`)

// DefLatencyBuckets are the default latency buckets in seconds: 100µs to
// 10s, roughly exponential — wide enough for a cross-ocean statement,
// fine enough to see a cache hit.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ---- sharded counter cells ----

// shardCount is the number of counter stripes, a power of two sized to the
// scheduler's parallelism.
var shardCount = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 128 {
		n <<= 1
	}
	return n
}()

// cell is one cache-line-padded counter stripe.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// shardIndex picks a stripe for the calling goroutine. Goroutine stacks
// live on distinct pages, so the page number of a stack-local address is a
// cheap, well-distributed (and per-goroutine mostly stable) shard key. Any
// index is correct — distribution only affects contention, never totals.
func shardIndex() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 12) & uintptr(shardCount-1))
}

// Counter is a monotonically increasing sharded counter. A nil *Counter is
// a valid no-op, so metric handles can be left unset when metrics are
// disabled.
type Counter struct {
	cells []cell
}

func newCounter() *Counter { return &Counter{cells: make([]cell, shardCount)} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.cells[shardIndex()].n.Add(n)
}

// Value sums the shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is a settable instantaneous value. A nil *Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop; gauges move both ways).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative-on-render histogram. Buckets are
// upper bounds (le); an implicit +Inf bucket catches the overflow. A nil
// *Histogram is a valid no-op.
type Histogram struct {
	upper  []float64
	counts []cell // len(upper)+1; last is +Inf
	sum    Gauge  // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{
		upper:  buckets,
		counts: make([]cell, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].n.Add(1)
	h.sum.Add(v)
}

// Count is the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.counts {
		total += h.counts[i].n.Load()
	}
	return total
}

// Sum is the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// ---- registry ----

// series is one sample stream: an unlabeled family has a single series
// with an empty label value.
type series struct {
	labelValue string
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	// fn holds a func() float64 for function-backed collectors; atomic so
	// late registration can race with an in-flight scrape.
	fn atomic.Value
}

func (s *series) value() float64 {
	if v := s.fn.Load(); v != nil {
		return v.(func() float64)()
	}
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

// family is one named metric with its series (one per label value).
type family struct {
	name    string
	help    string
	kind    string
	label   string // label key; "" = unlabeled
	buckets []float64
	funcSrc bool // function-backed (CounterFunc/GaugeFunc)

	mu     sync.Mutex
	series map[string]*series
	order  []string // label values in registration order
}

func (f *family) get(labelValue string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[labelValue]; ok {
		return s
	}
	s := &series{labelValue: labelValue}
	switch f.kind {
	case KindCounter:
		s.counter = newCounter()
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = newHistogram(f.buckets)
	}
	f.series[labelValue] = s
	f.order = append(f.order, labelValue)
	return s
}

// snapshot returns the series sorted by label value.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, 0, len(f.series))
	vals := append([]string(nil), f.order...)
	sort.Strings(vals)
	for _, v := range vals {
		out = append(out, f.series[v])
	}
	return out
}

// Registry holds the metric families of one engine instance.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register get-or-creates a family, panicking on naming-scheme violations
// or conflicting shape — both are programming errors best caught at start.
func (r *Registry) register(name, help, kind, label string, buckets []float64, funcSrc bool) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: name %q violates the insightnotes_<layer>_<name> scheme", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label || f.help != help || f.funcSrc != funcSrc || len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("metrics: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		label:   label,
		buckets: buckets,
		funcSrc: funcSrc,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindCounter, "", nil, false).get("").counter
}

// Gauge registers (or returns) an unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindGauge, "", nil, false).get("").gauge
}

// CounterFunc registers a counter whose cumulative value is read from fn
// at scrape time — for subsystems that already keep their own counts.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, KindCounter, "", nil, true).get("").fn.Store(fn)
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, KindGauge, "", nil, true).get("").fn.Store(fn)
}

// Histogram registers (or returns) an unlabeled histogram over the given
// bucket upper bounds (ascending; +Inf implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindHistogram, "", buckets, false).get("").hist
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a counter family with one label key.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, KindCounter, label, nil, false)}
}

// With returns the counter of one label value, creating it on first use.
// Callers on hot paths should resolve once and keep the handle.
func (v *CounterVec) With(labelValue string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelValue).counter
}

// WithFunc makes one label value's series function-backed: its cumulative
// value is read from fn at scrape time instead of from an owned counter.
func (v *CounterVec) WithFunc(labelValue string, fn func() float64) {
	if v == nil {
		return
	}
	v.f.get(labelValue).fn.Store(fn)
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a gauge family with one label key.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, KindGauge, label, nil, false)}
}

// With returns the gauge of one label value, creating it on first use.
// Callers on hot paths should resolve once and keep the handle.
func (v *GaugeVec) With(labelValue string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(labelValue).gauge
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a histogram family with one label.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, label, buckets, false)}
}

// With returns the histogram of one label value, creating it on first use.
func (v *HistogramVec) With(labelValue string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(labelValue).hist
}

// sortedFamilies returns the families sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Sample is one flattened sample for the in-band SHOW METRICS view. Name
// includes the label pair and, for histograms, the _bucket/_sum/_count
// suffixes — exactly the sample names of the Prometheus exposition.
type Sample struct {
	Name  string
	Type  string
	Value float64
}

// Samples flattens every family into exposition-named samples, sorted by
// family name (series sorted by label value, buckets in ascending order).
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	for _, f := range r.sortedFamilies() {
		for _, s := range f.snapshot() {
			if f.kind == KindHistogram {
				cum := int64(0)
				for i, ub := range s.hist.upper {
					cum += s.hist.counts[i].n.Load()
					out = append(out, Sample{
						Name:  sampleName(f.name+"_bucket", f.label, s.labelValue, formatFloat(ub)),
						Type:  f.kind,
						Value: float64(cum),
					})
				}
				cum += s.hist.counts[len(s.hist.upper)].n.Load()
				out = append(out, Sample{Name: sampleName(f.name+"_bucket", f.label, s.labelValue, "+Inf"), Type: f.kind, Value: float64(cum)})
				out = append(out, Sample{Name: sampleName(f.name+"_sum", f.label, s.labelValue, ""), Type: f.kind, Value: s.hist.Sum()})
				out = append(out, Sample{Name: sampleName(f.name+"_count", f.label, s.labelValue, ""), Type: f.kind, Value: float64(cum)})
				continue
			}
			out = append(out, Sample{Name: sampleName(f.name, f.label, s.labelValue, ""), Type: f.kind, Value: s.value()})
		}
	}
	return out
}
