package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceIDFormatAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
		}
		for j := 0; j < len(id); j++ {
			c := id[j]
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
				t.Fatalf("trace ID %q has non-hex byte %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("trace ID %q repeated", id)
		}
		seen[id] = true
	}
}

func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"a", "0123456789abcdef", "A-Z_09", strings.Repeat("x", 64)} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "has space", "semi;colon", "new\nline", strings.Repeat("x", 65), `"quoted"`} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
	}
}

func TestTraceHonorsValidIDAndReplacesInvalid(t *testing.T) {
	if got := NewTrace("deadbeef").ID(); got != "deadbeef" {
		t.Fatalf("NewTrace(valid).ID() = %q, want deadbeef", got)
	}
	got := NewTrace("not a valid id!").ID()
	if got == "not a valid id!" || !ValidTraceID(got) {
		t.Fatalf("NewTrace(invalid).ID() = %q, want fresh valid ID", got)
	}
}

func TestTraceSpanHierarchy(t *testing.T) {
	tr := NewTrace("")
	root := tr.Span("request", A("endpoint", "/v1/analyze"))
	child := root.Child("solve")
	child.Annotate(A("iterations", 42))
	child.End()
	child.Annotate(A("late", "dropped")) // after End: must not appear
	open := root.Child("never-ended")
	_ = open
	root.End()
	tr.Finish()

	snap := tr.Snapshot()
	if snap.ID != tr.ID() {
		t.Fatalf("snapshot ID = %q, want %q", snap.ID, tr.ID())
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d recorded spans, want 2 (unended spans are not recorded): %+v", len(snap.Spans), snap.Spans)
	}
	// Sorted by creation order: request (id 1), solve (id 2).
	if snap.Spans[0].Name != "request" || snap.Spans[0].Parent != 0 {
		t.Fatalf("span[0] = %+v, want root request span", snap.Spans[0])
	}
	sv := snap.Spans[1]
	if sv.Name != "solve" || sv.Parent != snap.Spans[0].ID {
		t.Fatalf("span[1] = %+v, want solve child of request", sv)
	}
	if sv.Attrs["iterations"] != "42" {
		t.Fatalf("solve attrs = %v, want iterations=42", sv.Attrs)
	}
	if _, ok := sv.Attrs["late"]; ok {
		t.Fatalf("attribute annotated after End leaked into %v", sv.Attrs)
	}
	if snap.Spans[0].Attrs["endpoint"] != "/v1/analyze" {
		t.Fatalf("request attrs = %v", snap.Spans[0].Attrs)
	}
}

func TestNilTraceIsDisabled(t *testing.T) {
	var tr *Trace
	sp := tr.Span("x", A("k", "v"))
	if sp != nil {
		t.Fatalf("nil trace handed out non-nil span")
	}
	sp.Annotate(A("k", "v"))
	sp.End()
	if sp.Child("y") != nil {
		t.Fatalf("nil span handed out non-nil child")
	}
	if sp.Dur() != 0 {
		t.Fatalf("nil span Dur != 0")
	}
	tr.Finish()
	if tr.ID() != "" || tr.Dur() != 0 {
		t.Fatalf("nil trace ID/Dur not zero")
	}
	if snap := tr.Snapshot(); len(snap.Spans) != 0 || snap.ID != "" {
		t.Fatalf("nil trace snapshot = %+v, want empty", snap)
	}

	ctx := context.Background()
	if WithTrace(ctx, nil) != ctx || WithSpan(ctx, nil) != ctx {
		t.Fatalf("attaching nil trace/span changed the context")
	}
	if TraceFrom(ctx) != nil || SpanFrom(ctx) != nil {
		t.Fatalf("empty context returned non-nil trace/span")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTrace("")
	root := tr.Span("request")
	ctx := WithSpan(WithTrace(context.Background(), tr), root)
	if TraceFrom(ctx) != tr {
		t.Fatalf("TraceFrom did not return the attached trace")
	}
	if SpanFrom(ctx) != root {
		t.Fatalf("SpanFrom did not return the attached span")
	}
	// A layer below opens a child from whatever the context carries.
	child := SpanFrom(ctx).Child("stamp")
	child.End()
	root.End()
	if got := len(tr.Snapshot().Spans); got != 2 {
		t.Fatalf("got %d spans, want 2", got)
	}
}

func TestInfoHistogramExcludedFromDeterministic(t *testing.T) {
	r := NewRegistry()
	r.InfoHistogram("serve.latency_ms", []float64{1, 10}).Observe(3)
	r.Histogram("solve.iters", []float64{10, 100}).Observe(42)
	snap := r.Snapshot()
	if _, ok := snap.Histograms["serve.latency_ms (info)"]; !ok {
		t.Fatalf("info histogram missing its (info) key: %v", snap.Histograms)
	}
	det := snap.Deterministic()
	if _, ok := det.Histograms["serve.latency_ms (info)"]; ok {
		t.Fatalf("info histogram leaked into deterministic snapshot")
	}
	if _, ok := det.Histograms["solve.iters"]; !ok {
		t.Fatalf("regular histogram missing from deterministic snapshot")
	}
	if !strings.Contains(r.Summary(), "(info)") {
		t.Fatalf("Summary does not mark info histogram: %s", r.Summary())
	}
}

func TestGaugeAddDelta(t *testing.T) {
	r := NewRegistry()
	g := r.InfoGauge("inflight")
	g.Add(1)
	g.Add(1)
	g.Add(-1)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge after +1+1-1 = %g, want 1", got)
	}
	var ng *Gauge
	ng.Add(1) // nil-safe
}
