// Package obs is the zero-dependency runtime-observability substrate the
// serving stack instruments itself with: atomic counters, gauges, and
// log-bucketed latency histograms collected in a Registry and exposed in
// Prometheus text exposition format (provd's GET /v1/metrics).
//
// Design constraints, in order:
//
//   - Recording must be cheap enough to leave on in production ingest and
//     query hot paths: a counter increment is one atomic add, a histogram
//     observation is two atomic adds plus one atomic increment on a bucket
//     computed with bit arithmetic — no locks, no allocation, no
//     formatting (TestHotPathAllocatesNothing pins "no allocation").
//   - Metric handles are registered once (package-level vars in the
//     instrumented packages) and then used directly; the registry lock is
//     only taken at registration and at scrape time. Registration is
//     idempotent: the same (name, labels) returns the same handle, so
//     lazily instrumented call sites (per-route HTTP counters) need no
//     bookkeeping of their own.
//   - SetEnabled(false) turns every recording operation into a no-op
//     (timer acquisition via Now returns the zero time, and Observe/Inc
//     bail on one atomic flag load): operators get a kill switch, and
//     tests an uninstrumented arm to compare against.
//
// Histograms are log-linear bucketed (16 sub-buckets per power of two, so
// quantile estimates carry at most ~1/16 relative error; see histogram.go)
// with mergeable, subtractable snapshots — provload derives per-phase
// percentiles by snapshot deltas over the same histograms provd serves.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every recording operation. Scrapes (WritePrometheus) are
// unaffected: disabling stops the counters, not the endpoint.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled switches metric recording on or off process-wide and returns
// the previous state. Off, counters stop advancing, histograms stop
// observing, and Now returns the zero time so deferred ObserveSince calls
// are no-ops.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether metric recording is on.
func Enabled() bool { return enabled.Load() }

// Now is the timer-acquisition helper for latency instrumentation: it
// returns time.Now() while recording is enabled and the zero time while
// disabled, so the disabled hot path skips the clock read entirely.
// Pair it with Histogram.ObserveSince, which ignores zero starts.
func Now() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Label is one constant key=value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if enabled.Load() {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if enabled.Load() {
		g.v.Add(d)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric kinds for exposition.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindSummary = "summary" // histograms expose as quantile summaries
)

// series is one labeled instance of a metric family. Exactly one of the
// value fields is set, matching the family's kind.
type series struct {
	labels []Label
	key    string // rendered label signature (registration identity)
	c      *Counter
	g      *Gauge
	gf     func() float64 // functional gauge; replaces g when set
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name    string
	help    string
	kind    string
	seconds bool // histogram observations are nanoseconds, exposed as seconds
	series  map[string]*series
}

// Registry holds metric families and renders them for scraping. The zero
// value is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry. Most code uses Default; separate
// registries exist for tests and for scoping (the HTTP middleware accepts
// one so handler tests assert on isolated counters).
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry every subsystem registers
// into; provd serves it at /v1/metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// lookup returns the family (creating it with the given kind/help on first
// use) and the series for the label set, creating the series via mk when
// absent. Registration is idempotent; re-registering an existing name with
// a different kind panics — that is a programming error, not runtime input.
func (r *Registry) lookup(name, help, kind string, seconds bool, labels []Label, mk func() *series) *series {
	key := labelKey(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			if f.kind != kind {
				panic("obs: metric " + name + " re-registered as " + kind + ", was " + f.kind)
			}
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, seconds: seconds, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " re-registered as " + kind + ", was " + f.kind)
	}
	s, ok := f.series[key]
	if !ok {
		s = mk()
		s.labels = append([]Label(nil), labels...)
		s.key = key
		f.series[key] = s
	}
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, false, labels, func() *series {
		return &series{c: &Counter{}}
	}).c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, false, labels, func() *series {
		return &series{g: &Gauge{}}
	}).g
}

// GaugeFunc registers a functional gauge evaluated at scrape time. Unlike
// the other constructors it REPLACES the callback when the series already
// exists: the natural semantics for instance-scoped values (a follower's
// replication lag) re-registered when a new instance starts in-process.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGauge, false, labels, func() *series {
		return &series{}
	})
	r.mu.Lock()
	s.gf = fn
	r.mu.Unlock()
}

// Histogram registers (or returns the existing) latency histogram: values
// observed as durations, exposed in seconds with p50/p90/p99 quantiles.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(name, help, kindSummary, true, labels, func() *series {
		return &series{h: &Histogram{}}
	}).h
}

// ValueHistogram registers (or returns the existing) histogram over raw
// unitless values (batch sizes, round counts), exposed without scaling.
func (r *Registry) ValueHistogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(name, help, kindSummary, false, labels, func() *series {
		return &series{h: &Histogram{}}
	}).h
}

// FindHistogram returns the already registered histogram for (name,
// labels), ok=false when absent — the read-side accessor provbench uses to
// derive p50/p99 deltas from the same histograms the daemon serves.
func (r *Registry) FindHistogram(name string, labels ...Label) (*Histogram, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok || f.kind != kindSummary {
		return nil, false
	}
	s, ok := f.series[labelKey(labels)]
	if !ok || s.h == nil {
		return nil, false
	}
	return s.h, true
}

// familySnapshot is one family with a copy of its series, sorted by label
// signature, as they stood when the registry lock was held.
type familySnapshot struct {
	*family
	series []series
}

// snapshotFamilies copies the families and their series under the registry
// lock — lookup inserts series and GaugeFunc swaps callbacks under the same
// lock, so exposition never reads a map or a field a registration is
// writing — and returns them in deterministic (sorted) order.
func (r *Registry) snapshotFamilies() []familySnapshot {
	r.mu.RLock()
	fams := make([]familySnapshot, 0, len(r.families))
	for _, f := range r.families {
		ss := make([]series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, *s)
		}
		fams = append(fams, familySnapshot{f, ss})
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	}
	return fams
}

// labelKey renders a label set into its registration identity.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := ""
	for _, l := range ls {
		key += l.Key + "\x00" + l.Value + "\x00"
	}
	return key
}
