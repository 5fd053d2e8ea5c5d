package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// A formats any value into an Attr.
func A(key string, value interface{}) Attr {
	return Attr{Key: key, Value: fmt.Sprint(value)}
}

// Trace is the one span model: a deterministic-format ID plus a set of
// hierarchical spans. A served request records one as it moves through
// the serving layers (admission queue, cache, stamp, solve, serialize);
// a CLI or experiment run records one through Registry.Trace (one span
// per table, figure, or model fit). Traces are wall-clock data — never
// part of the deterministic metrics contract — but their structural
// fields (span names, parent/child relations, item indices, solver
// iteration counts) are deterministic for a given request at any worker
// count, which is what the batch propagation test pins.
//
// Every method is nil-safe: a nil *Trace hands out nil *TraceSpans, and
// recording on a nil span is a no-op, so instrumented layers need no
// conditionals when tracing is absent (no registry, tracing disabled).
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	seq   int
	spans []TraceSpanSnapshot
	dur   time.Duration
	done  bool
}

// TraceSpan is one open span of a Trace. Create with Trace.Span or
// TraceSpan.Child; close with End, which records the span on its trace.
// A span that never Ends is never recorded.
type TraceSpan struct {
	t      *Trace
	id     int
	parent int
	name   string
	start  time.Duration

	mu    sync.Mutex
	attrs []Attr
	dur   time.Duration
	ended bool
}

// NewTrace builds a trace with the given ID; an empty or invalid ID
// selects a fresh NewTraceID.
func NewTrace(id string) *Trace {
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	return &Trace{id: id, start: now()}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span opens a root-level span. Safe on nil (returns a nil span).
func (t *Trace) Span(name string, attrs ...Attr) *TraceSpan {
	return t.newSpan(0, name, attrs)
}

func (t *Trace) newSpan(parent int, name string, attrs []Attr) *TraceSpan {
	if t == nil {
		return nil
	}
	// The clock is read under the lock, so span IDs follow start order.
	t.mu.Lock()
	start := now()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	return &TraceSpan{
		t:      t,
		id:     id,
		parent: parent,
		name:   name,
		start:  start.Sub(t.start),
		attrs:  append([]Attr(nil), attrs...),
	}
}

// Child opens a span nested under s. Safe on nil (returns nil).
func (s *TraceSpan) Child(name string, attrs ...Attr) *TraceSpan {
	if s == nil {
		return nil
	}
	return s.t.newSpan(s.id, name, attrs)
}

// Annotate appends attributes to the span; attributes added after End
// are dropped. No-op on nil.
func (s *TraceSpan) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.mu.Unlock()
}

// End closes the span and records it on its trace. Only the first End
// takes effect. No-op on nil.
func (s *TraceSpan) End() {
	if s == nil {
		return
	}
	end := now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = end.Sub(s.t.start) - s.start
	snap := TraceSpanSnapshot{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartMS: float64(s.start) / 1e6,
		DurMS:   float64(s.dur) / 1e6,
	}
	if len(s.attrs) > 0 {
		snap.Attrs = map[string]string{}
		for _, a := range s.attrs {
			snap.Attrs[a.Key] = a.Value
		}
	}
	s.mu.Unlock()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, snap)
	s.t.mu.Unlock()
}

// Dur returns the span duration (0 before End or on nil).
func (s *TraceSpan) Dur() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Finish closes the trace, fixing its total duration. Only the first
// Finish takes effect. No-op on nil.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	end := now()
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.dur = end.Sub(t.start)
	}
	t.mu.Unlock()
}

// Dur returns the trace's total duration: fixed by Finish, running
// until then. 0 on nil.
func (t *Trace) Dur() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.dur
	}
	return now().Sub(t.start)
}

// TraceSnapshot is one completed trace shaped for JSON export
// (/debug/requests). Field names are a compatibility contract; see
// DESIGN.md §5e. A run trace exports only its Spans (Snapshot.Spans).
type TraceSnapshot struct {
	// ID is the trace ID echoed in X-Trace-Id.
	ID string `json:"trace_id"`
	// Start is the wall-clock trace start (UTC, RFC 3339).
	Start string `json:"start"`
	// DurMS is the total trace duration in milliseconds.
	DurMS float64 `json:"dur_ms"`
	// Spans holds the recorded spans in creation order.
	Spans []TraceSpanSnapshot `json:"spans,omitempty"`
}

// TraceSpanSnapshot is one recorded span of a trace.
type TraceSpanSnapshot struct {
	// ID is the span's trace-local ID (1-based, creation order).
	ID int `json:"id"`
	// Parent is the parent span ID (0 for root-level spans).
	Parent int `json:"parent,omitempty"`
	// Name is the phase name (request, queue, cache, flight, item,
	// stamp, solve, serialize; exp/<table>, opt/fit-models in runs).
	Name string `json:"name"`
	// StartMS is the span start relative to the trace start.
	StartMS float64 `json:"start_ms"`
	// DurMS is the span duration in milliseconds.
	DurMS float64 `json:"dur_ms"`
	// Attrs carries the span annotations (outcome, item, iterations, …).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Snapshot copies the trace's recorded spans, sorted by span ID
// (creation order, which is start order — stable under concurrent
// recording). Safe on nil.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	out := TraceSnapshot{
		ID:    t.id,
		Start: t.start.UTC().Format(time.RFC3339Nano),
		DurMS: float64(t.dur) / 1e6,
		Spans: append([]TraceSpanSnapshot(nil), t.spans...),
	}
	if !t.done {
		out.DurMS = float64(now().Sub(t.start)) / 1e6
	}
	t.mu.Unlock()
	sortSpansByID(out.Spans)
	return out
}

func sortSpansByID(spans []TraceSpanSnapshot) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].ID < spans[j-1].ID; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

// traceSeq and traceBase make trace IDs unique within a process without
// consulting the wall clock: a random 64-bit base from crypto/rand,
// whitened with a Weyl sequence per ID. The format — 16 lowercase hex
// characters — is the deterministic part of the contract; values are
// necessarily random.
var (
	traceSeq  atomic.Uint64
	traceBase = func() uint64 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			// A broken system entropy source should not take request
			// serving down; fall back to the sequence alone.
			return 0
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

// NewTraceID returns a fresh 16-hex-character trace ID, unique within
// the process.
func NewTraceID() string {
	return fmt.Sprintf("%016x", traceBase^(traceSeq.Add(1)*0x9e3779b97f4a7c15))
}

// ValidTraceID reports whether s is acceptable as an inbound trace ID:
// 1–64 characters of [0-9a-zA-Z_-]. Anything else is replaced rather
// than echoed, so a hostile header cannot inject into logs or traces.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

type traceCtxKey struct{}
type spanCtxKey struct{}

// WithTrace attaches t to the context. A nil trace leaves ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// WithSpan attaches the active span to the context, so nested layers
// (par fan-out, irdrop stamp/solve) hang their children under it. A nil
// span leaves ctx unchanged.
func WithSpan(ctx context.Context, s *TraceSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the context's active span, or nil.
func SpanFrom(ctx context.Context) *TraceSpan {
	s, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return s
}
