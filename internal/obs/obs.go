// Package obs is the repository's observability spine: a typed metrics
// registry (counters, gauges, log2-bucket latency histograms) with a
// deterministic snapshot-to-JSON form, and a ring-buffered span tracer for
// job and chunk lifecycles (trace.go). The service, scheduler and cluster
// layers feed it; gatherd serves its snapshots on /metrics,
// /v1/fleet and /v1/jobs/{id}/trace.
//
// Design constraints, in order:
//
//   - Near-zero cost when disabled. Every hot-path hook is a nil check:
//     a nil *Tracer no-ops Record, and layers that take an optional
//     *Registry skip all observation when it is nil.
//
//   - Strictly reporting-only. Nothing in this package may feed a content
//     address, a canonical encoding or a cluster merge: wall-clock reads
//     live here (obs is deliberately outside the determinism-critical
//     package set, DESIGN.md §11) so instrumented packages never touch
//     time themselves. DESIGN.md §13 states the exclusion argument.
//
//   - At the bottom of the import graph: besides the standard library, obs
//     imports only internal/hist, a standard-library-only leaf, so every
//     layer can depend on it without cycles. A Histogram is a hist.Dist
//     behind a mutex — the same type sweep summaries use (internal/agg) —
//     so both bucket, merge and estimate quantiles with one piece of code.
//
//   - No lock is ever held across a channel operation or a caller-supplied
//     callback. Snapshot collects metric handles under the registry lock,
//     releases it, then evaluates gauge functions — a gauge is free to take
//     service or queue locks of its own. The lockscope analyzer enforces
//     this shape for the whole package (DESIGN.md §13).
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nochatter/internal/hist"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is a caller bug; it is
// applied as-is to keep Add branch-free on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. A nil counter reads 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is ready to use;
// all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (use negative n to decrement).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the gauge's current value. A nil gauge reads 0.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a concurrency-safe streaming distribution of non-negative
// int64 observations — typically latencies in microseconds: a hist.Dist
// behind a mutex, with its state, laws and JSON form. Observe and Merge
// commute and associate, so histograms folded on any number of goroutines
// and merged in any order agree bit for bit. The zero value is empty and
// ready to use; a nil *Histogram is a no-op sink.
type Histogram struct {
	mu sync.Mutex
	d  hist.Dist
}

// Observe folds one value (see hist.Dist.Observe: negative values clamp
// to 0, the sum saturates at MaxInt64).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.d.Observe(v)
	h.mu.Unlock()
}

// Merge folds o into h. Merging is associative and commutative; merging an
// empty histogram is the identity.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	od := o.Snapshot()
	h.mu.Lock()
	h.d.Merge(od)
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the histogram's state; it marshals
// with its derived mean and quantiles (hist.Dist.MarshalJSON). A nil
// histogram snapshots as empty.
func (h *Histogram) Snapshot() hist.Dist {
	if h == nil {
		return hist.Dist{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d
}

// Registry is a named collection of metrics with a single JSON snapshot
// form. Metric kinds share one namespace: registering a name under two
// different kinds panics at wiring time (a programmer error no test should
// survive), while re-requesting the same kind returns the existing metric,
// so independent subsystems can share counters by name.
//
// All methods are safe for concurrent use. Snapshot never holds the
// registry lock across a gauge function: functions are collected under the
// lock and evaluated after it is released, so a gauge may take arbitrary
// locks of its own (queue depth, cache size) without lock-order concerns.
type Registry struct {
	mu      sync.Mutex
	kinds   map[string]string
	counter map[string]*Counter
	gauge   map[string]*Gauge
	funcs   map[string]func() float64
	objects map[string]func() any
	hists   map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:   make(map[string]string),
		counter: make(map[string]*Counter),
		gauge:   make(map[string]*Gauge),
		funcs:   make(map[string]func() float64),
		objects: make(map[string]func() any),
		hists:   make(map[string]*Histogram),
	}
}

// claim records name as kind, panicking on a cross-kind collision.
func (r *Registry) claim(name, kind string) {
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, now requested as %s", name, k, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil // nil *Counter is itself a no-op sink
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "counter")
	c := r.counter[name]
	if c == nil {
		c = &Counter{}
		r.counter[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil // nil *Gauge is itself a no-op sink
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge")
	g := r.gauge[name]
	if g == nil {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// GaugeFunc registers a computed gauge: fn is evaluated at snapshot time,
// outside the registry lock. Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "func")
	r.funcs[name] = fn
}

// Object registers a computed snapshot entry whose value is marshaled as-is
// — the hook for structured sub-documents like the coordinator's scheduler
// stats. fn is evaluated at snapshot time, outside the registry lock, and
// must return a JSON-marshalable value; returning nil omits the key from
// that snapshot.
func (r *Registry) Object(name string, fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "object")
	r.objects[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil // nil *Histogram is itself a no-op sink
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "histogram")
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every metric's current value keyed by name: counters
// and gauges as int64, computed gauges as float64, histograms as
// hist.Dist, objects as whatever their function returns. The map
// marshals with encoding/json's sorted-key order, so two snapshots of
// equal state encode identically.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return map[string]any{}
	}
	r.mu.Lock()
	type namedFunc struct {
		name string
		fn   func() float64
	}
	type namedObj struct {
		name string
		fn   func() any
	}
	out := make(map[string]any, len(r.kinds))
	for name, c := range r.counter {
		out[name] = c.Value()
	}
	for name, g := range r.gauge {
		out[name] = g.Value()
	}
	hists := make([]struct {
		name string
		h    *Histogram
	}, 0, len(r.hists))
	//lint:allow maporder the collected handles land back in a map keyed by name; order cannot surface
	for name, h := range r.hists {
		hists = append(hists, struct {
			name string
			h    *Histogram
		}{name, h})
	}
	funcs := make([]namedFunc, 0, len(r.funcs))
	//lint:allow maporder same: evaluation lands in the keyed snapshot map
	for name, fn := range r.funcs {
		funcs = append(funcs, namedFunc{name, fn})
	}
	objs := make([]namedObj, 0, len(r.objects))
	//lint:allow maporder same: evaluation lands in the keyed snapshot map
	for name, fn := range r.objects {
		objs = append(objs, namedObj{name, fn})
	}
	r.mu.Unlock()
	// Histograms and user functions are evaluated outside the registry
	// lock: a histogram takes its own mutex, and a gauge function may take
	// arbitrary subsystem locks (queue depth, cache size, HTTP-free by the
	// lockscope rules of the packages it lives in).
	for _, nh := range hists {
		out[nh.name] = nh.h.Snapshot()
	}
	for _, nf := range funcs {
		out[nf.name] = nf.fn()
	}
	for _, no := range objs {
		if v := no.fn(); v != nil {
			out[no.name] = v
		}
	}
	return out
}

// MarshalJSON encodes the registry's snapshot; the registry itself can
// therefore be served directly as a metrics document.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.kinds))
	for name := range r.kinds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
