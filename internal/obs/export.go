package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for ServeDebug
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of a registry, shaped for JSON export
// (expvar-compatible: Registry.String renders one as a JSON object).
// encoding/json writes map keys in sorted order, so two snapshots with
// equal contents marshal to identical bytes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers     map[string]TimerSnapshot     `json:"timers,omitempty"`
	Spans      []TraceSpanSnapshot          `json:"spans,omitempty"`
}

// HistogramSnapshot carries a histogram's fixed bounds and bucket
// tallies. Sum is the observation total; it accumulates floats in
// scheduling order, so Deterministic zeroes it while keeping the
// bucket tallies and count.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum,omitempty"`
}

// TimerSnapshot summarizes a duration accumulator.
type TimerSnapshot struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	MaxSec  float64 `json:"max_seconds,omitempty"`
}

// Snapshot copies the registry's current state. Safe on nil (returns an
// empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Timers:     map[string]TimerSnapshot{},
	}
	if r == nil {
		return s
	}
	metrics, names := r.metricsByName()
	for _, name := range names {
		switch m := metrics[name].(type) {
		case *Counter:
			s.Counters[name] = m.Value()
		case *Gauge:
			key := name
			if m.info {
				key = name + " (info)"
			}
			s.Gauges[key] = m.Value()
		case *Histogram:
			hs := HistogramSnapshot{
				Bounds:  append([]float64(nil), m.bounds...),
				Buckets: make([]int64, len(m.buckets)),
				Count:   m.Count(),
				Sum:     m.sum(),
			}
			for i := range m.buckets {
				hs.Buckets[i] = m.Bucket(i)
			}
			key := name
			if m.info {
				key = name + " (info)"
			}
			s.Histograms[key] = hs
		case *Timer:
			s.Timers[name] = TimerSnapshot{
				Count:   m.Count(),
				Seconds: m.Total().Seconds(),
				MaxSec:  time.Duration(m.maxNS.Load()).Seconds(),
			}
		}
	}
	s.Spans = r.trace.Snapshot().Spans
	return s
}

// metricsByName copies the metric table under the lock and returns it
// with its keys in sorted order, so exports never depend on map order.
func (r *Registry) metricsByName() (map[string]interface{}, []string) {
	r.mu.Lock()
	metrics := make(map[string]interface{}, len(r.metrics))
	names := make([]string, 0, len(r.metrics))
	for name, m := range r.metrics {
		metrics[name] = m
		names = append(names, name) // ok: sorted below
	}
	r.mu.Unlock()
	sort.Strings(names)
	return metrics, names
}

func (h *Histogram) sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Deterministic strips everything wall-clock-derived or run-condition-
// dependent from the snapshot: timers, spans, info gauges, and histogram
// sums. What remains — counter values, gauge maxima, histogram bucket
// tallies — must be byte-identical across worker counts for one
// workload; the cross-worker regression tests marshal two of these and
// compare the bytes.
func (s Snapshot) Deterministic() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	for name, v := range s.Gauges {
		if strings.HasSuffix(name, " (info)") {
			continue
		}
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		if strings.HasSuffix(name, " (info)") {
			continue
		}
		h.Sum = 0
		out.Histograms[name] = h
	}
	return out
}

// JSON renders the full snapshot as indented JSON (the -metrics-out
// format). Safe on nil.
func (r *Registry) JSON() []byte {
	// Snapshot holds only marshalable types, so the error is unreachable.
	b, _ := json.MarshalIndent(r.Snapshot(), "", "  ")
	return b
}

// String renders the snapshot as compact JSON, satisfying expvar.Var so
// a registry can be expvar.Publish'ed next to the pprof endpoints.
func (r *Registry) String() string {
	b, _ := json.Marshal(r.Snapshot())
	return string(b)
}

// Summary renders the human-readable -stats report: the run trace's
// spans in start order (attributes sorted by key) followed by every
// metric, sorted by name.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	spans := r.trace.Snapshot().Spans
	if len(spans) > 0 {
		sb.WriteString("spans (start -> duration):\n")
		for _, sp := range spans {
			dur := time.Duration(sp.DurMS * 1e6).Round(100 * time.Microsecond)
			fmt.Fprintf(&sb, "  %9.1fms  %-28s %s", sp.StartMS, sp.Name, dur)
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k) // ok: sorted below
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, "  %s=%s", k, sp.Attrs[k])
			}
			sb.WriteByte('\n')
		}
	}
	metrics, names := r.metricsByName()
	if len(names) > 0 {
		sb.WriteString("metrics:\n")
	}
	for _, name := range names {
		switch m := metrics[name].(type) {
		case *Counter:
			fmt.Fprintf(&sb, "  %-40s %d\n", name, m.Value())
		case *Gauge:
			kind := ""
			if m.info {
				kind = " (info)"
			}
			fmt.Fprintf(&sb, "  %-40s %g%s\n", name, m.Value(), kind)
		case *Histogram:
			kind := ""
			if m.info {
				kind = " (info)"
			}
			fmt.Fprintf(&sb, "  %-40s n=%d mean=%.3g [", name, m.Count(), histMean(m))
			for i := range m.buckets {
				if i > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d", m.Bucket(i))
			}
			fmt.Fprintf(&sb, "] bounds=%v%s\n", m.bounds, kind)
		case *Timer:
			fmt.Fprintf(&sb, "  %-40s n=%d total=%s\n", name, m.Count(), m.Total().Round(100*time.Microsecond))
		}
	}
	return sb.String()
}

// PromText renders every metric in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms with cumulative le-labeled buckets plus _sum/_count, and
// timers as quantile-less summaries in seconds. Metric names are the
// registry names with every character outside [a-zA-Z0-9_:] replaced by
// '_'. Spans are not exported — scrape /debug/requests for traces.
// Safe on nil (returns an empty exposition).
func (r *Registry) PromText() []byte {
	var sb strings.Builder
	if r == nil {
		return []byte{}
	}
	metrics, names := r.metricsByName()
	for _, name := range names {
		pn := promName(name)
		switch m := metrics[name].(type) {
		case *Counter:
			fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", pn, pn, m.Value())
		case *Gauge:
			fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(m.Value()))
		case *Histogram:
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", pn)
			var cum int64
			for i, b := range m.bounds {
				cum += m.Bucket(i)
				fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", pn, promFloat(b), cum)
			}
			fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", pn, m.Count())
			fmt.Fprintf(&sb, "%s_sum %s\n", pn, promFloat(m.sum()))
			fmt.Fprintf(&sb, "%s_count %d\n", pn, m.Count())
		case *Timer:
			fmt.Fprintf(&sb, "# TYPE %s_seconds summary\n", pn)
			fmt.Fprintf(&sb, "%s_seconds_sum %s\n", pn, promFloat(m.Total().Seconds()))
			fmt.Fprintf(&sb, "%s_seconds_count %d\n", pn, m.Count())
		}
	}
	return []byte(sb.String())
}

// promName maps a registry metric name onto the Prometheus name
// alphabet.
func promName(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case '0' <= c && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat renders a float sample value (shortest round-trip form).
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func histMean(h *Histogram) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.sum() / float64(n)
}

// ServeDebug starts an HTTP server on addr exposing the default mux —
// net/http/pprof's /debug/pprof and expvar's /debug/vars (publish the
// run's registry with expvar.Publish to include it there). It returns
// immediately; the server lives until the process exits. The goroutine
// below is deliberate: a debug listener is not analysis concurrency and
// must outlive any worker pool, so it cannot ride internal/par.
func ServeDebug(addr string, errlog func(format string, args ...interface{})) {
	//pdnlint:ignore rawgo the pprof/expvar listener is process-lifetime background I/O, not bounded analysis work; internal/par pools would block on it
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil && errlog != nil {
			errlog("obs: debug server on %s: %v", addr, err)
		}
	}()
}
