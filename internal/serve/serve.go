// Package serve is the long-running HTTP/JSON surface over the IR-drop
// analysis stack: pdnserve exposes single analyses (/v1/analyze), batched
// fan-out (/v1/batch), look-up-table builds (/v1/lut), liveness
// (/healthz), and metrics (/metrics) over the same query.Query schema the
// irsim CLI validates, so the two entry points cannot drift.
//
// The serving layers, outermost first:
//
//   - Admission control: a semaphore caps in-flight requests; a request
//     that cannot get a slot within the queue-wait budget is rejected
//     with 429, and every request is rejected with 503 once draining
//     starts.
//   - Edge limits: a request body is read, capped at maxBodyBytes and
//     under a read deadline, before the request takes an admission slot;
//     a LUT grid above maxLUTPoints is refused with 413, and a mesh above
//     rmesh.MaxNodes with 400 on its pitch.
//   - Result cache: a bounded par.Cache keyed by the canonical
//     speckey-framed cache key (design fingerprint, explicit state, I/O
//     activity), so equivalent spellings of one query share a single
//     entry, repeat queries never re-solve, and concurrent misses on one
//     key collapse to a single solve. Analyzers and LUTs sit in two more
//     bounded caches keyed by design.
//   - Cancellation: each solve runs under the request context, through
//     irdrop.AnalyzeCtx or a LUT's lut.BuildCtx, so an abandoned
//     connection stops burning CPU at the next solver-iteration
//     boundary. A caller waiting on another request's solve waits on its
//     own context, and a solve abandoned by its own caller is re-run for
//     the callers still waiting.
//
// Responses carry only deterministic fields (no timings, no timestamps),
// and every solve starts from zero: for a given request the body is
// byte-identical across runs, request orders and worker counts, which is
// what makes the cache sound and the service regression-testable.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/lut"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/par"
	"pdn3d/internal/query"
	"pdn3d/internal/speckey"
)

// Limits on what one request may ask of the server (the mesh node budget
// is rmesh.MaxNodes, checked in query resolution). They are constants, not
// Config fields: each sits far above any legitimate request — a full batch
// of 256 queries is tens of kilobytes, the default LUT grid 243 points —
// and exists only to keep one hostile input from exhausting the process.
const (
	// maxBodyBytes caps a request body; a larger one gets 413.
	maxBodyBytes = 1 << 20
	// bodyReadTimeout bounds reading a request body; a slower one gets 408.
	bodyReadTimeout = 10 * time.Second
	// maxLUTPoints caps the points one /v1/lut grid may ask for
	// (deduplicated I/O levels x (max_per_die+1)^dies); a larger grid
	// gets 413, as an oversized batch does.
	maxLUTPoints = 4096
)

// Config tunes a Server. The zero value selects sensible defaults.
type Config struct {
	// Workers bounds the batch fan-out and LUT-build pools. <= 0 selects
	// GOMAXPROCS. Results are identical for every value.
	Workers int
	// MeshPitch, when > 0, is the mesh pitch (mm) applied to queries that
	// do not override the pitch themselves — the server-wide
	// fidelity/latency knob.
	MeshPitch float64

	// MaxInFlight caps concurrently admitted requests; <= 0 selects
	// 2 x GOMAXPROCS.
	MaxInFlight int
	// QueueWait bounds how long a request may wait for an admission slot
	// before a 429; <= 0 selects 1s.
	QueueWait time.Duration
	// CacheSize bounds the analyze result cache (entries); <= 0 selects
	// 1024.
	CacheSize int
	// DesignCacheSize bounds the analyzer and LUT caches (distinct designs
	// held in memory); <= 0 selects 64.
	DesignCacheSize int
	// MaxBatch caps queries per /v1/batch request; <= 0 selects 256.
	MaxBatch int
	// TraceBufSize bounds each /debug/requests retention class (the N
	// most recent and N slowest request traces); <= 0 selects
	// obs.DefaultRetainCap.
	TraceBufSize int
	// SolveBufSize bounds each /debug/solves retention class (the N most
	// recent and N worst-by-iterations solve records); <= 0 selects
	// obs.DefaultRetainCap.
	SolveBufSize int

	// Log receives one structured access record per request; nil
	// disables access logging.
	Log *obs.Logger

	// Reg receives serving metrics; nil allocates a private registry (the
	// /metrics endpoint works either way).
	Reg *obs.Registry

	// method, when set, names the solve method every design uses in place
	// of solve.MethodFor's size rule. Only this package's tests set it, to
	// substitute a fault-injecting solver.
	method string
}

// Server is the HTTP handler. Create with New; it is safe for concurrent
// use and implements http.Handler.
type Server struct {
	cfg Config
	reg *obs.Registry
	mux *http.ServeMux

	sem      chan struct{}
	draining atomic.Bool

	// Analyze results (marshaled bodies), and per design its analyzer
	// (conductance matrix + solver) and built LUTs.
	results   *par.Cache[[]byte]
	analyzers *par.Cache[*irdrop.Analyzer]
	luts      *par.Cache[*lut.Table]

	cacheHits, cacheMisses   *obs.Counter
	flightHits, flightMisses *obs.Counter
	admitted                 *obs.Counter
	rejectedBusy             *obs.Counter
	rejectedDraining         *obs.Counter

	// Request-scoped observability: per-endpoint telemetry, the bounded
	// trace retention behind /debug/requests, the solve flight-record
	// retention behind /debug/solves, and the access log.
	ep     map[string]*epMetrics
	traces *obs.Retain[obs.TraceSnapshot]
	solves *obs.SolveBuffer
	log    *obs.Logger
}

// New builds a Server from cfg, filling defaults.
func New(cfg Config) *Server {
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.DesignCacheSize <= 0 {
		cfg.DesignCacheSize = 64
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Reg,
		mux:       http.NewServeMux(),
		sem:       make(chan struct{}, cfg.MaxInFlight),
		results:   par.NewCache[[]byte](cfg.CacheSize),
		analyzers: par.NewCache[*irdrop.Analyzer](cfg.DesignCacheSize),
		luts:      par.NewCache[*lut.Table](cfg.DesignCacheSize),
	}
	s.cacheHits = s.reg.Counter("serve.cache.hits")
	s.cacheMisses = s.reg.Counter("serve.cache.misses")
	s.flightHits = s.reg.Counter("serve.flight.hits")
	s.flightMisses = s.reg.Counter("serve.flight.misses")
	s.admitted = s.reg.Counter("serve.admission.admitted")
	s.rejectedBusy = s.reg.Counter("serve.admission.rejected_busy")
	s.rejectedDraining = s.reg.Counter("serve.admission.rejected_draining")

	s.traces = obs.NewRetain(cfg.TraceBufSize, func(ts obs.TraceSnapshot) float64 { return ts.DurMS })
	// Solve iteration counts, condition estimates and balances are
	// deterministic for one workload (the recorded shapes are worker-
	// count-independent by the solver contract), so these histograms join
	// the deterministic snapshot — unlike the wall-clock latency ones.
	s.solves = obs.NewSolveBuffer(cfg.SolveBufSize)
	s.solves.IterHist = s.reg.Histogram("serve.solve.iterations", solveIterBounds)
	s.solves.CondHist = s.reg.Histogram("serve.solve.cond_est", solveCondBounds)
	s.solves.BalanceHist = s.reg.Histogram("serve.solve.balance", solveBalanceBounds)
	s.log = cfg.Log
	s.ep = map[string]*epMetrics{
		"analyze": newEPMetrics(s.reg, "analyze"),
		"batch":   newEPMetrics(s.reg, "batch"),
		"lut":     newEPMetrics(s.reg, "lut"),
	}

	s.mux.HandleFunc("/v1/analyze", s.throttled("analyze", s.handleAnalyze))
	s.mux.HandleFunc("/v1/batch", s.throttled("batch", s.handleBatch))
	s.mux.HandleFunc("/v1/lut", s.throttled("lut", s.handleLUT))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", debugList("trace", "slowest", s.traces.Snapshot,
		func(id string) (obs.TraceSnapshot, bool) {
			return s.traces.Find(func(ts obs.TraceSnapshot) bool { return ts.ID == id })
		}))
	s.mux.HandleFunc("/debug/solves", debugList("solve record", "worst", s.solves.Snapshot, s.solves.Find))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// Registry returns the metrics registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain stops admitting new work (requests get 503, /healthz flips to
// 503) and waits for every in-flight request to finish, by acquiring all
// admission slots. It returns ctx's error if the deadline passes with
// work still in flight. Drain is terminal: the server never admits again.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for i := 0; i < cap(s.sem); i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d of %d slots still busy: %w",
				cap(s.sem)-i, cap(s.sem), ctx.Err())
		}
	}
	return nil
}

// acquire claims an admission slot within the queue-wait budget. It
// returns a release func on success, or the HTTP status to reject with.
func (s *Server) acquire(ctx context.Context) (func(), int) {
	if s.draining.Load() {
		s.rejectedDraining.Add(1)
		return nil, http.StatusServiceUnavailable
	}
	stop := s.reg.Timer("serve.admission.queue_wait").Start()
	defer stop()
	wctx, cancel := context.WithTimeout(ctx, s.cfg.QueueWait)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		// Re-check: a drain that started while we queued owns the server
		// now; hand the slot straight to it.
		if s.draining.Load() {
			<-s.sem
			s.rejectedDraining.Add(1)
			return nil, http.StatusServiceUnavailable
		}
		s.admitted.Add(1)
		return func() { <-s.sem }, 0
	case <-wctx.Done():
		s.rejectedBusy.Add(1)
		return nil, http.StatusTooManyRequests
	}
}

// throttled wraps a POST handler with method check, body read, admission
// control, and request-scoped observability. A whole batch holds one slot:
// MaxInFlight bounds admitted HTTP requests, Workers bounds the fan-out
// within them. Every request gets a Trace whose ID is
// echoed in X-Trace-Id (a valid inbound header is honored for
// correlation); the queue-wait is its first span, recorded separately
// from handler time so saturation diagnosis can tell slow solves from
// too many clients. On completion the endpoint telemetry, the trace
// buffer, and the access log each receive their record.
func (s *Server) throttled(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.ep[name]
	return func(w http.ResponseWriter, req *http.Request) {
		ep.requests.Add(1)
		tr := obs.NewTrace(requestTraceID(req))
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Trace-Id", tr.ID())
		root := tr.Span("request", obs.A("endpoint", req.URL.Path))
		ep.inflight.Add(1)
		var queueWait time.Duration
		func() {
			if req.Method != http.MethodPost {
				writeErr(sw, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s requires POST", req.URL.Path))
				return
			}
			body, status, err := readBody(w, req)
			if err != nil {
				writeErr(sw, status, err)
				return
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			qs := root.Child("queue")
			release, status := s.acquire(req.Context())
			qs.End()
			queueWait = qs.Dur()
			if status != 0 {
				if status == http.StatusTooManyRequests {
					ep.rejectedBusy.Add(1)
				}
				writeErr(sw, status, errors.New("serve: over capacity"))
				return
			}
			defer release()
			h(sw, req.WithContext(obs.WithSpan(obs.WithTrace(req.Context(), tr), root)))
		}()
		ep.inflight.Add(-1)
		root.End()
		tr.Finish()
		snap := tr.Snapshot()
		ep.observe(sw.status, queueWait, tr.Dur())
		s.traces.Add(snap)
		s.logRequest(name, req, sw, snap, queueWait)
	}
}

// readBody reads the request body, capped at maxBodyBytes, under a read
// deadline of bodyReadTimeout, so a client that trickles its body fails
// here instead of holding an admission slot. The deadline is set on the
// connection through http.ResponseController and cleared after the read:
// a Server.ReadTimeout would outlive the read, and net/http would then
// cancel the context of a handler still running.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, int, error) {
	rc := http.NewResponseController(w)
	// A writer without a connection (httptest.ResponseRecorder) cannot take
	// a deadline; the size cap still holds.
	//pdnlint:ignore walltime a connection read deadline is absolute time; it bounds I/O and never reaches a response
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	_ = rc.SetReadDeadline(time.Time{})
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: request body exceeds %d bytes", maxBodyBytes)
	case errors.Is(err, os.ErrDeadlineExceeded):
		return nil, http.StatusRequestTimeout, fmt.Errorf("serve: request body not read within %s", bodyReadTimeout)
	case err != nil:
		return nil, http.StatusBadRequest, fmt.Errorf("serve: reading request body: %w", err)
	}
	return body, 0, nil
}

// logRequest emits the per-request access record. The leading fields —
// trace_id, endpoint, path, method, status, bytes, dur_ms, queue_ms,
// handler_ms — appear on every record in this order; phase and cache
// fields follow when the trace recorded them. Field names are part of
// the log schema (DESIGN.md §5e).
func (s *Server) logRequest(name string, req *http.Request, sw *statusWriter, ts obs.TraceSnapshot, queueWait time.Duration) {
	if s.log == nil {
		return
	}
	queueMS := float64(queueWait) / 1e6
	handlerMS := ts.DurMS - queueMS
	if handlerMS < 0 {
		handlerMS = 0
	}
	fields := []obs.Field{
		obs.F("trace_id", ts.ID),
		obs.F("endpoint", name),
		obs.F("path", req.URL.Path),
		obs.F("method", req.Method),
		obs.F("status", sw.status),
		obs.F("bytes", sw.bytes),
		obs.F("dur_ms", round3(ts.DurMS)),
		obs.F("queue_ms", round3(queueMS)),
		obs.F("handler_ms", round3(handlerMS)),
	}
	fields = append(fields, traceLogFields(ts)...)
	s.log.Event("request", fields...)
}

// AnalyzeResponse is the /v1/analyze result body. Every field is
// deterministic — no timings or timestamps — so a given query marshals to
// byte-identical bodies across runs and worker counts.
type AnalyzeResponse struct {
	// Design is the resolved spec name.
	Design string `json:"design"`
	// Bench echoes the requested benchmark.
	Bench string `json:"bench"`
	// State is the canonical "R1-R2-...-Rn" per-die active-bank state.
	State string `json:"state"`
	// IO is the per-die I/O activity analyzed.
	IO float64 `json:"io"`
	// MaxIRmV is the stack maximum IR drop in millivolts.
	MaxIRmV float64 `json:"max_ir_mv"`
	// PerDieMV is the per-DRAM-die maximum IR drop in millivolts.
	PerDieMV []float64 `json:"per_die_mv"`
	// LogicIRmV is the logic die maximum IR drop (omitted off-chip).
	LogicIRmV float64 `json:"logic_ir_mv,omitempty"`
	// TotalPowerMW is the summed DRAM stack power in milliwatts.
	TotalPowerMW float64 `json:"total_power_mw"`
	// Iterations reports the solver iteration count.
	Iterations int `json:"iterations"`
	// Converged reports solver convergence.
	Converged bool `json:"converged"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	var q query.Query
	if err := decodeJSON(req, &q); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	body, status, err := s.analyzeOne(req.Context(), q)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// analyzeOne runs one query through resolve -> result cache -> solve and
// returns the marshaled response body. On error the returned status is
// the HTTP status the error maps to.
//
// Trace phases: "cache" covers resolve plus the cache lookup (outcome
// hit|miss|invalid); on a miss, "flight" covers waiting for or running
// the solve — outcome "solve" when this request ran it (with mesh, stamp,
// solve, and serialize children recorded under it) or "shared" when it
// waited on a concurrent caller's solve of the same key.
func (s *Server) analyzeOne(ctx context.Context, q query.Query) ([]byte, int, error) {
	parent := obs.SpanFrom(ctx)
	cs := parent.Child("cache")
	if s.cfg.MeshPitch > 0 && q.Pitch == 0 {
		q.Pitch = s.cfg.MeshPitch
	}
	r, err := q.Resolve()
	if err != nil {
		cs.Annotate(obs.A("outcome", "invalid"))
		cs.End()
		return nil, statusFor(err), err
	}
	// missed, ran and fs are only touched on this goroutine: Do calls both
	// hooks here or not at all.
	var fs *obs.TraceSpan
	missed, ran := false, false
	body, err := s.results.Do(ctx, r.CacheKey(), func() {
		missed = true
		cs.Annotate(obs.A("outcome", "miss"))
		cs.End()
		fs = parent.Child("flight")
	}, func() ([]byte, error) {
		ran = true
		fctx := obs.WithSpan(ctx, fs)
		a, err := s.analyzerFor(fctx, r)
		if err != nil {
			return nil, err
		}
		res, err := a.AnalyzeCtx(fctx, r.State, r.Query.IO)
		if err != nil {
			return nil, err
		}
		ss := fs.Child("serialize")
		b, err := marshalAnalyze(r, res)
		ss.End()
		return b, err
	})
	switch {
	case !missed:
		s.cacheHits.Add(1)
		cs.Annotate(obs.A("outcome", "hit"))
		cs.End()
	case ran:
		s.cacheMisses.Add(1)
		s.flightMisses.Add(1)
		fs.Annotate(obs.A("outcome", "solve"))
	default:
		s.cacheMisses.Add(1)
		s.flightHits.Add(1)
		fs.Annotate(obs.A("outcome", "shared"))
	}
	fs.End()
	if err != nil {
		return nil, statusFor(err), err
	}
	return body, http.StatusOK, nil
}

func marshalAnalyze(r *query.Resolved, res *irdrop.Result) ([]byte, error) {
	perDie := make([]float64, len(res.PerDie))
	for i, v := range res.PerDie {
		perDie[i] = v * 1000
	}
	return json.Marshal(&AnalyzeResponse{
		Design:       r.Spec.Name,
		Bench:        r.Query.Bench,
		State:        countsString(r.Counts),
		IO:           r.Query.IO,
		MaxIRmV:      res.MaxIRmV(),
		PerDieMV:     perDie,
		LogicIRmV:    res.LogicIRmV(),
		TotalPowerMW: res.TotalPower,
		Iterations:   res.Stats.Iterations,
		Converged:    res.Stats.Converged,
	})
}

// analyzerFor returns the analyzer for the resolved design, building at
// most one per design key. The goroutine that runs the build records a
// "mesh" child span of ctx's active span (outcome="full").
func (s *Server) analyzerFor(ctx context.Context, r *query.Resolved) (*irdrop.Analyzer, error) {
	return s.analyzers.Do(ctx, r.SpecKey(), nil, func() (*irdrop.Analyzer, error) {
		ms := obs.SpanFrom(ctx).Child("mesh", obs.A("outcome", "full"))
		defer ms.End()
		a, err := irdrop.NewObs(r.Spec, r.Bench.DRAMPower, r.Logic, s.reg)
		if err != nil {
			return nil, err
		}
		a.Opts.Method = s.cfg.method
		// All designs share the server's one solve buffer.
		a.SolveRecords = s.solves
		return a, nil
	})
}

// BatchRequest is the /v1/batch body: independent queries fanned out over
// the worker pool.
type BatchRequest struct {
	// Queries are the analyses to run.
	Queries []query.Query `json:"queries"`
	// TimeoutMS, when > 0, bounds the whole batch; items not finished in
	// time fail individually with status 503.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItem is one per-query outcome. The batch never aborts as a whole:
// each item carries its own result or error in its input position.
type BatchItem struct {
	// OK reports whether the query succeeded.
	OK bool `json:"ok"`
	// Status is the HTTP status the item would have had standalone.
	Status int `json:"status"`
	// Result is the AnalyzeResponse body (present when OK).
	Result json.RawMessage `json:"result,omitempty"`
	// Error describes the failure (present when !OK).
	Error string `json:"error,omitempty"`
}

// BatchResponse is the /v1/batch result body.
type BatchResponse struct {
	// Results holds one item per input query, in input order.
	Results []BatchItem `json:"results"`
	// Failed counts items with OK == false.
	Failed int `json:"failed"`
}

func (s *Server) handleBatch(w http.ResponseWriter, req *http.Request) {
	var breq BatchRequest
	if err := decodeJSON(req, &breq); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(breq.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("serve: batch has no queries"))
		return
	}
	if len(breq.Queries) > s.cfg.MaxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: batch of %d exceeds limit %d", len(breq.Queries), s.cfg.MaxBatch))
		return
	}
	s.reg.Counter("serve.batch.items").Add(int64(len(breq.Queries)))
	ctx := req.Context()
	if breq.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(breq.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	resp := BatchResponse{Results: make([]BatchItem, len(breq.Queries))}
	// Never-abort fan-out: fn always returns nil so one bad query cannot
	// cancel its siblings; each failure lands in its item's slot. Each
	// item runs under its own "item" child span of the request trace, so
	// a slow batch attributes its latency to the individual queries.
	_ = par.SweepCtx(ctx, s.cfg.Workers, len(breq.Queries), s.reg.SweepMetrics("serve.batch.sweep"), "item", func(ctx context.Context, i int) error {
		body, status, err := s.analyzeOne(ctx, breq.Queries[i])
		if err != nil {
			resp.Results[i] = BatchItem{Status: status, Error: err.Error()}
			return nil
		}
		resp.Results[i] = BatchItem{OK: true, Status: http.StatusOK, Result: body}
		return nil
	})
	for _, it := range resp.Results {
		if !it.OK {
			resp.Failed++
		}
	}
	s.reg.Counter("serve.batch.item_errors").Add(int64(resp.Failed))
	writeJSON(w, http.StatusOK, &resp)
}

// LUTRequest is the /v1/lut body: the design-selecting query fields (state
// and io are ignored), the table grid, and an optional probe.
type LUTRequest struct {
	query.Query
	// MaxPerDie bounds per-die active banks in the grid; <= 0 selects the
	// interleaving cap.
	MaxPerDie int `json:"max_per_die,omitempty"`
	// IOLevels are the covered activity levels; empty selects the default
	// grid.
	IOLevels []float64 `json:"io_levels,omitempty"`
	// Full includes every grid point in the response.
	Full bool `json:"full,omitempty"`
	// Probe, when set, looks one (state, io) up in the table; an io
	// outside (0,1] fails the request with 400, and a point outside the
	// grid with 422.
	Probe *LUTProbe `json:"probe,omitempty"`
}

// LUTProbe is one table lookup.
type LUTProbe struct {
	// State is the per-die count state "R1-R2-...-Rn".
	State string `json:"state"`
	// IO is the activity level (rounded up to the nearest covered level).
	IO float64 `json:"io"`
}

// LUTPoint is one grid point in a full LUT response.
type LUTPoint struct {
	Counts  []int   `json:"counts"`
	IO      float64 `json:"io"`
	MaxIRmV float64 `json:"max_ir_mv"`
}

// LUTResponse is the /v1/lut result body.
type LUTResponse struct {
	Design    string    `json:"design"`
	Bench     string    `json:"bench"`
	Dies      int       `json:"dies"`
	MaxPerDie int       `json:"max_per_die"`
	IOLevels  []float64 `json:"io_levels"`
	Entries   int       `json:"entries"`
	WorstIRmV float64   `json:"worst_ir_mv"`
	// Points holds the full grid in deterministic order (Full only).
	Points []LUTPoint `json:"points,omitempty"`
	// ProbeMaxIRmV is the probed lookup result (Probe only).
	ProbeMaxIRmV *float64 `json:"probe_max_ir_mv,omitempty"`
}

func (s *Server) handleLUT(w http.ResponseWriter, req *http.Request) {
	var lreq LUTRequest
	if err := decodeJSON(req, &lreq); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if s.cfg.MeshPitch > 0 && lreq.Pitch == 0 {
		lreq.Pitch = s.cfg.MeshPitch
	}
	r, err := lreq.Query.ResolveDesign()
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	maxPerDie := lreq.MaxPerDie
	if maxPerDie <= 0 {
		maxPerDie = memstate.MaxInterleavedBanks
	}
	levels := lreq.IOLevels
	if len(levels) == 0 {
		levels = lut.DefaultIOLevels()
	}
	for _, io := range levels {
		if err := query.CheckIO("io_levels", io); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
	}
	if lreq.Probe != nil {
		if err := query.CheckIO("probe.io", lreq.Probe.IO); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
	}
	// Sorted and deduplicated, equal grids share one cache key and a
	// repeated level costs nothing.
	slices.Sort(levels)
	levels = slices.Compact(levels)
	// Every level multiplies the point count by (maxPerDie+1)^dies. A
	// build's solves do not grow with the levels — it solves
	// 1 + dies·(1+maxPerDie) unit responses, one more with a logic die,
	// whatever their number — but its table and per-state sums do. The
	// product is taken in floating point so no input can overflow it.
	if points := float64(len(levels)) * math.Pow(float64(maxPerDie)+1, float64(r.Spec.NumDRAM)); points > maxLUTPoints {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: LUT grid of %.3g points exceeds limit %d", points, maxLUTPoints))
		return
	}
	t, err := s.lutFor(req.Context(), r, maxPerDie, levels)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	resp := LUTResponse{
		Design:    r.Spec.Name,
		Bench:     r.Query.Bench,
		Dies:      t.Dies,
		MaxPerDie: t.MaxPerDie,
		IOLevels:  t.IOLevels,
		Entries:   t.Entries(),
		WorstIRmV: t.WorstIR() * 1000,
	}
	if lreq.Full {
		for _, p := range t.Points() {
			resp.Points = append(resp.Points, LUTPoint{Counts: p.Counts, IO: p.IO, MaxIRmV: p.MaxIR * 1000})
		}
	}
	if lreq.Probe != nil {
		counts, err := memstate.ParseCountsFor(lreq.Probe.State, r.Spec.NumDRAM, r.Spec.DRAM.NumBanks)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ir, err := t.MaxIR(counts, lreq.Probe.IO)
		if err != nil {
			// lut.ErrNotCovered maps to 422: the request parsed fine but
			// asks for a point outside the covered grid.
			writeErr(w, statusFor(err), err)
			return
		}
		mv := ir * 1000
		resp.ProbeMaxIRmV = &mv
	}
	writeJSON(w, http.StatusOK, &resp)
}

// lutFor returns the cached table for the design grid, building at most
// one per key under the caller's context: a build abandoned by its
// client stops solving, and a request waiting on it builds anew.
func (s *Server) lutFor(ctx context.Context, r *query.Resolved, maxPerDie int, levels []float64) (*lut.Table, error) {
	var kb speckey.Builder
	kb.Str(r.SpecKey())
	kb.Int(maxPerDie)
	for _, io := range levels {
		kb.Float(io)
	}
	return s.luts.Do(ctx, kb.String(), nil, func() (*lut.Table, error) {
		a, err := s.analyzerFor(ctx, r)
		if err != nil {
			return nil, err
		}
		return lut.BuildCtx(ctx, a, maxPerDie, levels, s.cfg.Workers)
	})
}

type healthBody struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, &healthBody{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, &healthBody{Status: "ok"})
}

// handleMetrics serves the registry in two representations: the
// expvar-style JSON snapshot (default, backward compatible) and the
// Prometheus text exposition when the scraper asks for it — via an
// Accept header naming text/plain or openmetrics, or explicitly with
// ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if wantsProm(req) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(s.reg.PromText())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(s.reg.JSON())
}

// statusFor maps an error to its HTTP status: validation failures are
// 400, LUT coverage misses 422, cancellations 503, everything else 500.
func statusFor(err error) int {
	var fe *query.FieldError
	switch {
	case errors.As(err, &fe):
		return http.StatusBadRequest
	case errors.Is(err, lut.ErrNotCovered):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func decodeJSON(req *http.Request, v interface{}) error {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

type errBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, &errBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"serve: response marshal failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, b)
}

func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}

// countsString renders a count vector in the paper's "R1-R2-...-Rn"
// notation — the canonical state spelling echoed in responses.
func countsString(counts []int) string {
	var sb strings.Builder
	for i, c := range counts {
		if i > 0 {
			sb.WriteByte('-')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}
