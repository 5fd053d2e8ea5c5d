// Package obs is the observability layer of the analysis stack: a
// stdlib-only, concurrency-safe metrics registry (counters, gauges,
// histograms with fixed deterministic bucket bounds, duration timers),
// one span model — Trace and TraceSpan, recorded per served request and,
// through Registry.Trace, once per CLI or experiment run — and one
// retention buffer, Retain, behind every /debug list. Registries export
// an expvar-compatible JSON snapshot and a human -stats summary.
//
// Determinism contract: for one workload, every counter value, gauge
// maximum, and histogram bucket tally is identical for any worker count.
// Wall-clock-derived metrics (timers, spans, metrics created with
// nondeterministic intent) are the explicit exception and are stripped by
// Snapshot.Deterministic, which is what the cross-worker regression tests
// compare byte for byte. To keep that auditable, this package is the one
// sanctioned wall-clock consumer in library code — the single time.Now
// call below carries the repo's only blessed walltime waiver.
//
// Every metric accessor and recording method is nil-safe: a nil *Registry
// hands out nil metrics, and recording on a nil metric is a no-op, so
// instrumented hot paths need no conditionals around an absent registry.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// now is the single blessed wall-clock read behind every timer and span.
func now() time.Time {
	//pdnlint:ignore walltime obs is the one sanctioned wall-clock consumer; durations are stripped from deterministic snapshots by design
	return time.Now()
}

// Registry is a named-metric registry plus the run Trace for one run.
// All methods are safe for concurrent use; the nil registry is a valid
// disabled registry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]interface{}
	trace   *Trace
}

// NewRegistry returns an empty registry with a fresh run trace; the
// registry's creation time anchors the trace's span timestamps.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]interface{}{}, trace: NewTrace("")}
}

// Trace returns the run trace: the span tree of a CLI or experiment run,
// in the same model the serving layer records per request. Returns nil
// on a nil registry, so spans opened on a disabled run cost nothing.
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// get returns the metric registered under name, creating it with mk on
// first use. A name maps to exactly one metric kind for the lifetime of
// the registry; a kind mismatch panics (programmer error, caught by the
// package's own tests).
func (r *Registry) get(name string, mk func() interface{}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = mk()
		r.metrics[name] = m
	}
	return m
}

// Counter returns the monotonically increasing counter with the given
// name, creating it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.get(name, func() interface{} { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic("obs: metric " + name + " already registered with a different kind")
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Gauges carry
// one float64; use SetMax from concurrent recorders so the stored value
// (a maximum over a deterministic multiset) stays worker-count-
// independent. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge { return r.gauge(name, false) }

// InfoGauge is Gauge for values that legitimately depend on run
// conditions (worker counts, utilization ratios). Info gauges are
// excluded from the deterministic snapshot. Returns nil on a nil
// registry.
func (r *Registry) InfoGauge(name string) *Gauge { return r.gauge(name, true) }

func (r *Registry) gauge(name string, info bool) *Gauge {
	if r == nil {
		return nil
	}
	m := r.get(name, func() interface{} { return &Gauge{info: info} })
	g, ok := m.(*Gauge)
	if !ok {
		panic("obs: metric " + name + " already registered with a different kind")
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (ascending; a final +Inf overflow bucket
// is implicit). Bounds are fixed at creation, which is what keeps bucket
// tallies deterministic. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, false)
}

// InfoHistogram is Histogram for observations that legitimately depend
// on run conditions — request latencies, queue waits — whose bucket
// tallies therefore cannot join the deterministic snapshot. Returns nil
// on a nil registry.
func (r *Registry) InfoHistogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, true)
}

func (r *Registry) histogram(name string, bounds []float64, info bool) *Histogram {
	if r == nil {
		return nil
	}
	m := r.get(name, func() interface{} { return newHistogram(bounds, info) })
	h, ok := m.(*Histogram)
	if !ok {
		panic("obs: metric " + name + " already registered with a different kind")
	}
	return h
}

// Timer returns the named duration accumulator, creating it on first
// use. Timers are wall-clock-derived and therefore excluded from the
// deterministic snapshot. Returns nil on a nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	m := r.get(name, func() interface{} { return &Timer{} })
	t, ok := m.(*Timer)
	if !ok {
		panic("obs: metric " + name + " already registered with a different kind")
	}
	return t
}

// Counter is a concurrency-safe monotonic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a concurrency-safe float64 cell.
type Gauge struct {
	bits atomic.Uint64
	info bool
}

// Set stores v, overwriting the previous value. Last writer wins, so
// concurrent recorders with distinct values should use SetMax instead.
// No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds the stored value. The result
// is the maximum over all recorded values, independent of recording
// order — safe for concurrent sweeps. No-op on nil.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Add shifts the gauge by delta (negative to decrease) — the in-flight
// counter pattern. Order-dependent only in transient values; use on
// info gauges. No-op on nil.
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

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i tallies
// observations v with v <= Bounds[i] (and > Bounds[i-1]); the final
// bucket is the +Inf overflow. The observation sum is tracked for the
// summary but excluded from the deterministic snapshot (float addition
// order depends on scheduling).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	info    bool
}

func newHistogram(bounds []float64, info bool) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1), info: info}
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Bucket returns the tally of bucket i (0 on nil).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil {
		return 0
	}
	return h.buckets[i].Load()
}

// Timer accumulates durations: call count and total time, plus the
// maximum single observation.
type Timer struct {
	count   atomic.Int64
	totalNS atomic.Int64
	maxNS   atomic.Int64
}

// Start begins one timed section and returns the stop function that
// records it. Safe (and a no-op) on a nil timer.
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	start := now()
	return func() { t.Observe(now().Sub(start)) }
}

// Observe records one duration directly. No-op on nil.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.totalNS.Add(int64(d))
	for {
		old := t.maxNS.Load()
		if int64(d) <= old {
			return
		}
		if t.maxNS.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// Total returns the accumulated duration (0 on nil).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.totalNS.Load())
}

// Count returns the number of recorded sections (0 on nil).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}
