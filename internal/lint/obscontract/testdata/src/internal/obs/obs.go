// Package obs is a minimal mirror of pdn3d/internal/obs for fixture
// type-checking: obscontract matches the receiver types by name and the
// package by its "internal/obs" path suffix, so this stand-in triggers
// the same checks as the real package.
package obs

// Registry mirrors the metric registry.
type Registry struct{}

// Counter mirrors the monotonic counter.
type Counter struct{}

// Gauge mirrors the gauge.
type Gauge struct{}

// Histogram mirrors the histogram.
type Histogram struct{}

// Timer mirrors the timer.
type Timer struct{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }

func (r *Registry) Gauge(name string) *Gauge { return &Gauge{} }

func (r *Registry) InfoGauge(name string) *Gauge { return &Gauge{} }

func (r *Registry) Histogram(name string, bounds []float64) *Histogram { return &Histogram{} }

func (r *Registry) Timer(name string) *Timer { return &Timer{} }

// Add mirrors Counter.Add.
func (c *Counter) Add(n int64) {}

// Set mirrors Gauge.Set.
func (g *Gauge) Set(v float64) {}

// Trace mirrors the trace (a request's, or a registry's run trace).
type Trace struct{}

func (r *Registry) Trace() *Trace { return &Trace{} }

// TraceSpan mirrors one span of a trace.
type TraceSpan struct{}

func (t *Trace) Span(name string) *TraceSpan { return &TraceSpan{} }

func (s *TraceSpan) Child(name string) *TraceSpan { return &TraceSpan{} }

func (s *TraceSpan) End() {}

func (s *TraceSpan) Annotate(k, v string) {}

// SolveBuffer mirrors the solve flight-record buffer.
type SolveBuffer struct{}

// SolveRecorder mirrors the per-solve recorder.
type SolveRecorder struct{}

func (b *SolveBuffer) StartSolveRecord() *SolveRecorder { return &SolveRecorder{} }

func (r *SolveRecorder) RecordIter(alpha, res float64) {}

func (r *SolveRecorder) Commit() {}
