package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(1)
	r.Gauge("g").SetMax(2)
	r.InfoGauge("ig").Set(3)
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	r.Timer("t").Observe(time.Second)
	r.Timer("t").Start()()
	r.Trace().Span("s", A("k", 1)).End()
	r.SweepMetrics("sw").Begin(4).TaskStart()()
	r.SweepMetrics("sw").Begin(4).End()
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	if r.Trace() != nil {
		t.Fatal("nil registry handed out a run trace")
	}
	if s := r.Summary(); s != "" {
		t.Fatalf("nil Summary = %q, want empty", s)
	}
	if !json.Valid(r.JSON()) {
		t.Fatalf("nil registry JSON is invalid: %s", r.JSON())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("solves")
	c.Add(2)
	r.Counter("solves").Add(3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("residual")
	g.SetMax(1e-9)
	g.SetMax(1e-7)
	g.SetMax(1e-8)
	if got := g.Value(); got != 1e-7 {
		t.Fatalf("SetMax gauge = %g, want 1e-7", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("Set gauge = %g, want 42", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("iters", []float64{10, 100})
	for _, v := range []float64{1, 10, 11, 100, 1e6} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1} // <=10, <=100, +Inf
	for i, w := range want {
		if got := h.Bucket(i); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.sum(), 1.0+10+11+100+1e6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering gauge under a counter name")
		}
	}()
	r.Gauge("x")
}

func TestConcurrentRecordingIsExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("max")
	h := r.Histogram("h", []float64{50})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer r.Trace().Span("worker").End()
			for i := 0; i < per; i++ {
				c.Add(1)
				g.SetMax(float64(w*per + i))
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != float64(workers*per-1) {
		t.Fatalf("max gauge = %g, want %g", got, float64(workers*per-1))
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("hist count = %d, want %d", got, workers*per)
	}
	if got := h.Bucket(0) + h.Bucket(1); got != workers*per {
		t.Fatalf("bucket sum = %d, want %d", got, workers*per)
	}
	if got := len(r.Snapshot().Spans); got != workers {
		t.Fatalf("spans = %d, want %d", got, workers)
	}
}

// TestDeterministicSnapshotBytes replays the same logical workload on two
// registries with different scheduling (serial vs concurrent) and asserts
// the deterministic snapshots marshal to identical bytes.
func TestDeterministicSnapshotBytes(t *testing.T) {
	record := func(r *Registry, concurrent bool) {
		work := func(i int) {
			r.Counter("tasks").Add(1)
			r.Gauge("worst").SetMax(float64(i % 7))
			r.Histogram("sizes", []float64{2, 5}).Observe(float64(i % 10))
			r.InfoGauge("workers").Set(float64(i))  // stripped: run-condition dependent
			r.Timer("t").Observe(time.Duration(i))  // stripped: wall clock
			r.Trace().Span("task", A("i", i)).End() // stripped: wall clock
		}
		if !concurrent {
			for i := 0; i < 64; i++ {
				work(i)
			}
			return
		}
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); work(i) }(i)
		}
		wg.Wait()
	}
	a, b := NewRegistry(), NewRegistry()
	record(a, false)
	record(b, true)
	aj, err := json.Marshal(a.Snapshot().Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Snapshot().Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("deterministic snapshots differ:\nserial:     %s\nconcurrent: %s", aj, bj)
	}
	det := a.Snapshot().Deterministic()
	if len(det.Timers) != 0 || len(det.Spans) != 0 {
		t.Fatalf("deterministic snapshot kept timers/spans: %+v", det)
	}
	for name := range det.Gauges {
		if strings.Contains(name, "(info)") {
			t.Fatalf("deterministic snapshot kept info gauge %q", name)
		}
	}
	for _, h := range det.Histograms {
		if h.Sum != 0 {
			t.Fatalf("deterministic snapshot kept histogram sum %g", h.Sum)
		}
	}
}

func TestSnapshotJSONAndExpvarString(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Histogram("h", []float64{1}).Observe(0.5)
	sp := r.Trace().Span("stage", A("design", "2ch-4rank"))
	time.Sleep(time.Millisecond)
	sp.End()
	for _, b := range [][]byte{r.JSON(), []byte(r.String())} {
		if !json.Valid(b) {
			t.Fatalf("invalid JSON: %s", b)
		}
	}
	var s Snapshot
	if err := json.Unmarshal(r.JSON(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 7 {
		t.Fatalf("counter in JSON = %d, want 7", s.Counters["c"])
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "stage" || s.Spans[0].ID != 1 || s.Spans[0].Attrs["design"] != "2ch-4rank" {
		t.Fatalf("span in JSON = %+v", s.Spans)
	}
	if s.Spans[0].DurMS <= 0 {
		t.Fatalf("span duration = %v, want > 0", s.Spans[0].DurMS)
	}
}

func TestSpanOrderingByStart(t *testing.T) {
	r := NewRegistry()
	first := r.Trace().Span("first")
	second := first.Child("second")
	second.End() // closes before first: append order is second, first
	first.End()
	spans := r.Snapshot().Spans
	if len(spans) != 2 || spans[0].Name != "first" || spans[1].Name != "second" || spans[1].Parent != spans[0].ID {
		t.Fatalf("span order = %+v, want start order [first second] with second under first", spans)
	}
}

func TestSummaryMentionsEveryMetric(t *testing.T) {
	r := NewRegistry()
	r.Counter("solve.total").Add(3)
	r.Gauge("solve.residual").SetMax(1e-9)
	r.Histogram("solve.iters", []float64{10}).Observe(4)
	r.Timer("solve.time").Observe(time.Millisecond)
	r.Trace().Span("exp/table6").End()
	s := r.Summary()
	for _, want := range []string{"solve.total", "solve.residual", "solve.iters", "solve.time", "exp/table6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSweepMetrics(t *testing.T) {
	r := NewRegistry()
	m := r.SweepMetrics("par.sweep")
	run := m.Begin(2)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer run.TaskStart()()
			time.Sleep(100 * time.Microsecond)
		}()
	}
	wg.Wait()
	run.End()
	if got := r.Counter("par.sweep.tasks_started").Value(); got != 6 {
		t.Fatalf("tasks_started = %d, want 6", got)
	}
	if got := r.Counter("par.sweep.tasks_completed").Value(); got != 6 {
		t.Fatalf("tasks_completed = %d, want 6", got)
	}
	if got := r.Timer("par.sweep.busy").Count(); got != 6 {
		t.Fatalf("busy count = %d, want 6", got)
	}
	if u := r.InfoGauge("par.sweep.utilization").Value(); u <= 0 {
		t.Fatalf("utilization = %g, want > 0", u)
	}
	// Utilization is an info gauge: stripped from the deterministic view.
	det := r.Snapshot().Deterministic()
	if _, ok := det.Gauges["par.sweep.utilization"]; ok {
		t.Fatal("utilization leaked into deterministic snapshot")
	}
}
