package serve

// Request-scoped observability for the serving path: per-endpoint
// latency/status/in-flight telemetry, the X-Trace-Id contract, the
// /debug/* retention endpoints, and the structured access log. The
// phase vocabulary — queue, cache, flight, item, stamp, solve,
// serialize — and the log field names are a compatibility contract
// documented in DESIGN.md §5e.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pdn3d/internal/obs"
)

// latencyBoundsMS are the fixed bucket bounds (milliseconds) shared by
// every per-endpoint latency and queue-wait histogram. Fixed bounds are
// what keep scrape series stable across deploys.
var latencyBoundsMS = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// solveIterBounds, solveCondBounds and solveBalanceBounds are the fixed
// bucket bounds of the per-solve iteration-count, condition-estimate and
// Kirchhoff-balance histograms ("serve.solve.iterations" /
// "serve.solve.cond_est" / "serve.solve.balance"). Iterations span
// single-iteration solves through stalled runs; condition estimates are
// log-spaced across the well-conditioned-to-pathological range the corpus
// produces. Balances are decades from 1e-12 to 1e-4, with 1e-6 — the
// bound the irdrop tests pin every answer to — as a bucket edge, so the
// tally above it counts answers outside that pin.
var (
	solveIterBounds    = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	solveCondBounds    = []float64{1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 1e6}
	solveBalanceBounds = []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4}
)

// trackedStatuses are the response codes carrying their own counter;
// anything else lands in status_other.
var trackedStatuses = []int{200, 400, 405, 413, 422, 429, 500, 503}

// epMetrics is one endpoint's telemetry: request/status counters, an
// in-flight gauge, and latency plus queue-wait histograms. Latency data
// is wall-clock and therefore registered as info metrics, excluded from
// the deterministic snapshot contract.
type epMetrics struct {
	requests     *obs.Counter
	inflight     *obs.Gauge
	latencyMS    *obs.Histogram
	queueWaitMS  *obs.Histogram
	handlerMS    *obs.Histogram
	rejectedBusy *obs.Counter
	status       map[int]*obs.Counter
	statusOther  *obs.Counter
}

func newEPMetrics(reg *obs.Registry, name string) *epMetrics {
	p := "serve." + name + "."
	m := &epMetrics{
		requests:     reg.Counter(p + "requests"),
		inflight:     reg.InfoGauge(p + "inflight"),
		latencyMS:    reg.InfoHistogram(p+"latency_ms", latencyBoundsMS),
		queueWaitMS:  reg.InfoHistogram(p+"queue_wait_ms", latencyBoundsMS),
		handlerMS:    reg.InfoHistogram(p+"handler_ms", latencyBoundsMS),
		rejectedBusy: reg.Counter(p + "rejected_busy"),
		status:       map[int]*obs.Counter{},
		statusOther:  reg.Counter(p + "status.other"),
	}
	for _, code := range trackedStatuses {
		m.status[code] = reg.Counter(p + "status." + strconv.Itoa(code))
	}
	return m
}

// observe records one finished request: its status class, total
// latency, and the queue-wait/handler split — the split that separates
// "slow solves" from "too many clients" when diagnosing saturation.
func (m *epMetrics) observe(status int, queueWait, total time.Duration) {
	if m == nil {
		return
	}
	if c, ok := m.status[status]; ok {
		c.Add(1)
	} else {
		m.statusOther.Add(1)
	}
	m.latencyMS.Observe(float64(total) / 1e6)
	m.queueWaitMS.Observe(float64(queueWait) / 1e6)
	handler := total - queueWait
	if handler < 0 {
		handler = 0
	}
	m.handlerMS.Observe(float64(handler) / 1e6)
}

// statusWriter captures the response status and body size for metrics
// and the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// requestTraceID resolves the trace ID for a request: a valid inbound
// X-Trace-Id is honored (cross-service correlation), anything else gets
// a fresh ID.
func requestTraceID(req *http.Request) string {
	if id := req.Header.Get("X-Trace-Id"); obs.ValidTraceID(id) {
		return id
	}
	return obs.NewTraceID()
}

// traceLogFields summarizes a finished trace for its access-log record:
// total per-phase milliseconds, cache outcomes, and summed solver
// iterations. Field order is fixed — it is part of the log schema.
func traceLogFields(ts obs.TraceSnapshot) []obs.Field {
	var (
		phaseMS              = map[string]float64{}
		hits, solved, shared int
		iterations           int
	)
	for _, sp := range ts.Spans {
		phaseMS[sp.Name] += sp.DurMS
		switch sp.Attrs["outcome"] {
		case "hit":
			hits++
		case "solve":
			solved++
		case "shared":
			shared++
		}
		if it, err := strconv.Atoi(sp.Attrs["iterations"]); err == nil {
			iterations += it
		}
	}
	fields := make([]obs.Field, 0, 8)
	for _, name := range []string{"cache", "stamp", "solve", "serialize"} {
		if ms, ok := phaseMS[name]; ok {
			fields = append(fields, obs.F(name+"_ms", round3(ms)))
		}
	}
	if hits+solved+shared > 0 {
		fields = append(fields,
			obs.F("cache_hits", hits),
			obs.F("cache_solved", solved),
			obs.F("cache_shared", shared))
	}
	if iterations > 0 {
		fields = append(fields, obs.F("iterations", iterations))
	}
	return fields
}

// round3 trims a millisecond value to microsecond resolution so log
// lines stay readable.
func round3(ms float64) float64 {
	return float64(int64(ms*1000+0.5)) / 1000
}

// debugList serves one retention buffer as a /debug/* endpoint
// (/debug/requests, /debug/solves): GET only (405 otherwise); ?id= for
// the one value find returns (404 naming what when it is not retained);
// otherwise {added, recent, <topKey>} from snapshot — the number of
// values ever added, the newest first, and the highest-ranked first
// (slowest traces, worst solves) — with ?limit=N truncating each list to
// its N most interesting entries. N must be a positive integer: a
// non-integer is a 400, a non-positive integer a 422 (it parsed fine but
// asks for an empty or negative view, which is never what a debugging
// client wants). Errors use the /v1/* JSON envelope. The contract is
// pinned by TestDebugLimitContract and TestDebugListShape.
func debugList[T any](what, topKey string, snapshot func() (recent, top []T, added int64), find func(id string) (T, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s requires GET", req.URL.Path))
			return
		}
		if id := req.URL.Query().Get("id"); id != "" {
			v, ok := find(id)
			if !ok {
				writeErr(w, http.StatusNotFound, fmt.Errorf("serve: %s %s not retained (aged out or unknown)", what, id))
				return
			}
			writeJSON(w, http.StatusOK, &v)
			return
		}
		limit, ok := debugLimit(w, req)
		if !ok {
			return
		}
		recent, top, added := snapshot()
		// encoding/json writes map keys sorted, and "added" < "recent" <
		// "slowest", "worst" keeps the body's field order.
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"added":  added,
			"recent": truncate(recent, limit),
			topKey:   truncate(top, limit),
		})
	}
}

// debugLimit parses the shared ?limit= parameter: -1 (no truncation)
// when absent, the value when a positive integer, and ok=false after
// writing the 400/422 envelope otherwise.
func debugLimit(w http.ResponseWriter, req *http.Request) (limit int, ok bool) {
	raw := req.URL.Query().Get("limit")
	if raw == "" {
		return -1, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: limit %q must be an integer", raw))
		return 0, false
	}
	if n <= 0 {
		writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf("serve: limit %d must be positive", n))
		return 0, false
	}
	return n, true
}

// truncate caps a retention list at limit entries; limit < 0 keeps all.
// Lists are ordered most-interesting first (newest / slowest / worst),
// so truncation keeps the entries a capped client wants.
func truncate[T any](list []T, limit int) []T {
	if list == nil {
		list = []T{}
	}
	if limit >= 0 && limit < len(list) {
		list = list[:limit]
	}
	return list
}

// wantsProm decides the /metrics representation: explicit ?format= wins,
// then an Accept header naming a Prometheus text type; the default stays
// the JSON snapshot for backward compatibility with existing scrapers.
func wantsProm(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prometheus", "prom":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
