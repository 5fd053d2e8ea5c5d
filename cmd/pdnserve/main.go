// Command pdnserve serves the IR-drop analysis stack over HTTP/JSON:
// POST /v1/analyze (one query), POST /v1/batch (fan-out), POST /v1/lut
// (look-up-table build/probe), GET /healthz, GET /metrics, GET
// /debug/requests (recent and slowest request traces), and GET
// /debug/solves (recent and worst-by-iterations solve flight records).
// See internal/serve for the request schema and the caching, admission,
// tracing, and determinism contracts.
//
// All process output is structured log events on stderr — one line per
// event, logfmt by default or JSON lines with -log-format=json — and
// every served request emits a "request" event carrying its trace ID,
// status, and phase timings.
//
// On SIGINT/SIGTERM the server stops admitting (new requests get 503),
// drains in-flight work up to -drain-timeout, then shuts the listener
// down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdn3d/internal/obs"
	"pdn3d/internal/serve"
)

// idleTimeout closes a keep-alive connection idle this long.
const idleTimeout = 2 * time.Minute

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "batch and LUT-build worker pool size (<= 0: GOMAXPROCS)")
	pitch := flag.Float64("pitch", 0, "mesh pitch in mm applied to queries without their own override (0: benchmark defaults)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted requests (<= 0: 2 x GOMAXPROCS)")
	queueWait := flag.Duration("queue-wait", time.Second, "max wait for an admission slot before 429")
	cacheSize := flag.Int("cache", 1024, "analyze result cache entries")
	maxBatch := flag.Int("max-batch", 256, "max queries per /v1/batch request")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight work on shutdown")
	logFormat := flag.String("log-format", obs.LogText, "log output format: text or json")
	traceBuf := flag.Int("trace-buf", 0, "request traces retained for /debug/requests, per recent/slowest buffer (<= 0: default)")
	noTrace := flag.Bool("no-trace", false, "disable request tracing (X-Trace-Id is still issued; /debug/requests stays empty)")
	solveBuf := flag.Int("solve-buf", 0, "solve records retained for /debug/solves, per recent/worst buffer (<= 0: default)")
	noSolveRec := flag.Bool("no-solve-rec", false, "disable the solve flight recorder (/debug/solves stays empty; solve histograms are not registered)")
	healthInterval := flag.Duration("health-interval", obs.DefaultHealthInterval, "runtime-health gauge sampling period (0: disable the sampler)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdnserve: %v\n", err)
		os.Exit(1)
	}
	fatal := func(fields ...obs.Field) {
		logger.Event("fatal", fields...)
		os.Exit(1)
	}
	if *pitch < 0 {
		fatal(obs.F("error", fmt.Sprintf("-pitch %g must be >= 0", *pitch)))
	}

	s := serve.New(serve.Config{
		Workers:             *workers,
		MeshPitch:           *pitch,
		MaxInFlight:         *maxInflight,
		QueueWait:           *queueWait,
		CacheSize:           *cacheSize,
		MaxBatch:            *maxBatch,
		TraceBufSize:        *traceBuf,
		DisableTracing:      *noTrace,
		SolveBufSize:        *solveBuf,
		DisableSolveRecords: *noSolveRec,
		Log:                 logger,
	})
	if *healthInterval > 0 {
		// Runtime-health gauges (heap, goroutines, GC/scheduler pause p99s)
		// are info metrics on the server registry; the sampler runs for the
		// process lifetime and stops when drain completes.
		stopHealth := s.Registry().StartHealthSampler(*healthInterval)
		defer stopHealth()
	}
	// No ReadTimeout: its deadline outlives the body read, and net/http
	// then cancels the context of a handler still running (a long LUT
	// build would turn into a 503). The server bounds each body read with
	// its own deadline instead.
	httpSrv := &http.Server{Addr: *addr, Handler: s, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: idleTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//pdnlint:ignore rawgo the listener is process-lifetime background I/O like the obs debug server; internal/par pools are for bounded analysis work
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Event("start",
		obs.F("addr", *addr),
		obs.F("log_format", *logFormat),
		obs.F("tracing", !*noTrace))

	select {
	case err := <-errc:
		fatal(obs.F("error", err.Error()))
	case <-ctx.Done():
	}

	logger.Event("draining", obs.F("timeout", drainTimeout.String()))
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		logger.Event("drain_error", obs.F("error", err.Error()))
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Event("shutdown_error", obs.F("error", err.Error()))
	}
	logger.Event("drained")
}
