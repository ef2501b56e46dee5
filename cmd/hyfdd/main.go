// Command hyfdd is the profiling server: a long-running daemon that keeps
// datasets prepared in memory and serves FD/AFD/UCC discovery jobs over a
// versioned HTTP API. Datasets are registered once (POST /v1/datasets) —
// preprocessing is paid at registration — and any number of concurrent jobs
// (POST /v1/jobs) then run warm against the shared immutable Dataset.
//
// Usage:
//
//	hyfdd [flags]
//
// Examples:
//
//	hyfdd -addr :8080 -workers 4 -queue 64
//	hyfdd -addr 127.0.0.1:0 -addr-file /tmp/hyfdd.addr -data-dir ./testdata
//
//	curl -s localhost:8080/v1/datasets -d '{"name":"t","csv":"a,b\n1,2\n"}'
//	curl -s localhost:8080/v1/jobs -d '{"dataset":"t","mode":"fd"}'
//	curl -s localhost:8080/v1/jobs/j-1
//	curl -s localhost:8080/v1/jobs/j-1/trace?format=chrome > job.trace.json
//
// Every job records a flight-recorder span timeline (admission, queue wait,
// the engine's sampling/validation phases, result encoding), served as JSON
// on /v1/jobs/{id}/trace and, with ?format=chrome, in Chrome trace-event
// format that loads directly in Perfetto. The daemon further exposes
// /metrics (Prometheus text), /metrics.json, /healthz (liveness), /readyz
// (readiness: 503 once shutdown begins), /debug/slowjobs (the K slowest
// recent jobs) and /debug/pprof on the same address. On SIGINT/SIGTERM it
// stops admission, drains in-flight jobs for the -grace window, cancels the
// rest, optionally flushes a final metrics snapshot (-final-metrics), and
// exits 0. Logs are structured (log/slog) with job and request ids; see
// -log-level and -log-format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyfd"
	"hyfd/internal/logging"
	"hyfd/internal/server"
)

func main() {
	os.Exit(run())
}

// run is main's body with a proper exit code, so deferred cleanups execute.
func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 0, "concurrent jobs: 0 = one per CPU")
		queue        = flag.Int("queue", 64, "run-queue depth; beyond it admission answers 429")
		grace        = flag.Duration("grace", 15*time.Second, "shutdown grace period for draining in-flight jobs")
		deadline     = flag.Duration("default-deadline", 0, "default per-job deadline when the request has no deadline_ms (0 = unbounded)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 rejections")
		dataDir      = flag.String("data-dir", "", "confine path-based dataset registration to this directory ('' = allow any path)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening (for harnesses)")
		finalMetrics = flag.String("final-metrics", "", "write a final JSON metrics snapshot to this file on shutdown (- for stdout)")
		traceCap     = flag.Int("trace-capacity", 0, "per-job flight-recorder span capacity: 0 = default 256, negative disables /v1/jobs/{id}/trace")
		slowJobs     = flag.Int("slow-jobs", 0, "slowest-jobs ring size behind /debug/slowjobs: 0 = default 16, negative disables")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log format: text, json")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hyfdd [flags]")
		flag.PrintDefaults()
		return 2
	}
	logger, err := logging.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyfdd:", err)
		return 2
	}

	// The base context bounds every job; canceling it is the hard stop
	// behind the graceful drain.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reg := hyfd.NewMetricsRegistry()
	srv := server.New(ctx, server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		RetryAfter:      *retryAfter,
		DataDir:         *dataDir,
		Metrics:         reg,
		TraceCapacity:   *traceCap,
		SlowJobs:        *slowJobs,
		Logger:          logger,
	})
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		return 1
	}
	logger.Info("serving", "url", "http://"+ln.Addr().String(),
		"workers", *workers, "queue", *queue)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("writing addr file", "path", *addrFile, "error", err)
			return 1
		}
	}

	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("signal received, draining", "signal", s.String(), "grace", grace.String())
	case err := <-serveErr:
		logger.Error("serve failed", "error", err)
		return 1
	}

	// Shutdown sequence: stop admission first so /readyz flips and new
	// work is refused, then close the HTTP listener (in-flight responses
	// drain), then drain the job pool under the same grace deadline.
	srv.BeginShutdown()
	graceCtx, cancelGrace := context.WithTimeout(context.Background(), *grace)
	defer cancelGrace()
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := srv.Shutdown(graceCtx); err != nil {
		logger.Warn("grace deadline hit — canceled remaining jobs", "error", err)
	}

	if *finalMetrics != "" {
		if err := writeSnapshot(*finalMetrics, reg); err != nil {
			logger.Error("writing final metrics snapshot", "error", err)
			return 1
		}
	}
	logger.Info("shutdown complete")
	return 0
}

// The HTTP server's connection timeouts. A client that never finishes its
// request headers, or leaves a keep-alive connection idle, is cut off.
// Bodies and responses get no deadline, so /debug/pprof/profile?seconds=30
// and long trace fetches still complete.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in an http.Server with the
// connection timeouts set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// writeSnapshot flushes the registry's final state as one JSON document.
func writeSnapshot(path string, reg *hyfd.MetricsRegistry) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	snap := reg.Snapshot()
	return enc.Encode(snap)
}
