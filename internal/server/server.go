// Package server implements hyfdd's multi-tenant profiling service: a
// long-running HTTP daemon that registers datasets by name (preparing each
// exactly once into the immutable Dataset layer) and serves concurrent
// FD/AFD/UCC/ranked discovery jobs over a versioned JSON API. Ranked jobs
// stream: every stabilized rank is visible through GET /v1/jobs/{id} while
// the job still runs, marked partial until the run completes.
//
// # Architecture
//
// Four pieces compose the server (DESIGN.md §2f):
//
//   - the dataset registry (registry.go): name → prepared hyfd.Dataset,
//     preprocessing paid once at registration, shared read-only by every job.
//     Streaming ingest (POST /v1/datasets/{name}/delta) advances a
//     registration through a chain of immutable snapshot versions via
//     Dataset.Apply; jobs stay pinned to the version current at admission,
//     and concurrent deltas serialize claim-then-apply (one winner, 409
//     losers);
//   - the job store and bounded run queue (job.go, this file): admission
//     control rejects with 429 + Retry-After when the queue is full, a
//     fixed-size worker pool executes jobs, and per-job deadlines (counted
//     from submission, queue wait included) and cancellation are threaded
//     onto the engine's context path;
//   - the v1 HTTP API (api.go): /v1/datasets, /v1/jobs, plus the process's
//     /metrics, /metrics.json, and /debug/pprof surfaces on the same mux;
//   - the error table (errors.go): every error sentinel maps onto exactly
//     one HTTP status code in StatusFor.
//
// # Lifecycle
//
// New(ctx, cfg) builds the server; Start launches the worker pool;
// Shutdown(ctx) stops admission, cancels jobs still queued, drains in-flight
// jobs until ctx's grace deadline, cancels the stragglers, and joins every
// worker. The base context passed to New is the outer bound of every job:
// canceling it aborts all work.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyfd"
	"hyfd/internal/metrics"
	"hyfd/internal/trace"
	"hyfd/internal/tracing"
)

// Config parameterizes New.
type Config struct {
	// Workers is the number of jobs executed concurrently (<= 0: one per
	// available CPU). Each job may itself run multi-threaded; Threads on
	// the job request controls that.
	Workers int
	// QueueDepth bounds the run queue: jobs beyond the workers' capacity
	// wait here, and admission control rejects with 429 once it is full
	// (<= 0: 64).
	QueueDepth int
	// DefaultDeadline bounds jobs that don't carry their own deadline_ms
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// RetryAfter is the hint returned with 429 rejections (0 = 1s).
	RetryAfter time.Duration
	// DataDir, when set, confines path-based dataset registration to this
	// directory.
	DataDir string
	// Metrics receives the server's hyfdd_* instrument families and is
	// shared with the engine's per-job hyfd_* telemetry; nil runs the
	// server unmetered.
	Metrics *hyfd.MetricsRegistry
	// TraceCapacity bounds each job's flight-recorder span ring
	// (0 = tracing.DefaultCapacity; < 0 disables per-job tracing, making
	// GET /v1/jobs/{id}/trace a 404).
	TraceCapacity int
	// SlowJobs sizes the daemon-wide slowest-jobs ring behind
	// GET /debug/slowjobs (0 = tracing.DefaultSlowJobs; < 0 disables it).
	SlowJobs int
	// Logger receives the serving path's structured logs (admissions,
	// completions, rejections, shutdown) with job and request ids; nil
	// discards them.
	Logger *slog.Logger

	// clock injects a fake time source for the job-deadline path in tests;
	// nil uses the real clock.
	clock clock
}

// Server is one hyfdd instance. Create with New, mount Handler, call Start,
// and Shutdown to stop.
type Server struct {
	base     context.Context
	cfg      Config
	datasets *dsRegistry
	jobs     *jobStore

	queue    chan *job
	stop     chan struct{} // closed by Shutdown: workers stop picking up work
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	closing bool

	slow    *tracing.SlowJobs
	log     *slog.Logger
	nextReq atomic.Int64 // request-id sequence for access logging

	inst serverMetrics
}

// Names of the server-stage spans every traced job records; the engine
// phases bridged from trace.Observer nest under spanRun (see
// internal/tracing for the full vocabulary and DESIGN.md §2g).
const (
	spanJob       = "job"
	spanAdmission = "admission"
	spanQueueWait = "queue.wait"
	spanRun       = "run"
	spanEncode    = "encode"
)

// serverMetrics bundles the server's instruments; all fields are non-nil
// when a registry was configured, nil otherwise (instrument methods are
// nil-receiver safe).
type serverMetrics struct {
	jobsTotal     *metrics.CounterVec // hyfdd_jobs_total{status}
	rejected      *metrics.Counter    // hyfdd_jobs_rejected_total
	deltas        *metrics.Counter    // hyfdd_dataset_deltas_total
	queueDepth    *metrics.Gauge      // hyfdd_queue_depth
	queuePeak     *metrics.Gauge      // hyfdd_queue_depth_peak
	running       *metrics.Gauge      // hyfdd_jobs_running
	datasets      *metrics.Gauge      // hyfdd_datasets
	queueWait     *metrics.Histogram  // hyfdd_job_queue_wait_seconds
	runSeconds    *metrics.HistogramVec
	spanSeconds   *metrics.HistogramVec // hyfdd_span_seconds{span}
	prepSeconds   *metrics.Histogram
	up            *metrics.Gauge
	httpRequests  *metrics.CounterVec // hyfdd_http_requests_total{code}
	peakDepthSeen int64               // guarded by Server.mu
}

// New builds a server over the base context: every job context derives from
// it, so canceling ctx aborts all current and future work.
func New(ctx context.Context, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.clock == nil {
		cfg.clock = realClock{}
	}
	s := &Server{
		base:     ctx,
		cfg:      cfg,
		datasets: newDSRegistry(),
		jobs:     newJobStore(),
		queue:    make(chan *job, cfg.QueueDepth),
		stop:     make(chan struct{}),
		log:      cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.SlowJobs >= 0 {
		s.slow = tracing.NewSlowJobs(cfg.SlowJobs)
	}
	if reg := cfg.Metrics; reg != nil {
		s.inst = serverMetrics{
			jobsTotal:    reg.CounterVec("hyfdd_jobs_total", "Jobs by terminal status.", "status"),
			rejected:     reg.Counter("hyfdd_jobs_rejected_total", "Jobs rejected by admission control (429)."),
			deltas:       reg.Counter("hyfdd_dataset_deltas_total", "Accepted dataset deltas (snapshot version advances)."),
			queueDepth:   reg.Gauge("hyfdd_queue_depth", "Jobs currently waiting in the run queue."),
			queuePeak:    reg.Gauge("hyfdd_queue_depth_peak", "Highest queue depth observed."),
			running:      reg.Gauge("hyfdd_jobs_running", "Jobs currently executing."),
			datasets:     reg.Gauge("hyfdd_datasets", "Registered datasets."),
			queueWait:    reg.Histogram("hyfdd_job_queue_wait_seconds", "Queue wait per job.", metrics.ExpBuckets(0.0001, 4, 12)),
			spanSeconds:  reg.HistogramVec("hyfdd_span_seconds", "Server-stage span durations per finished job, derived from the flight recorder.", metrics.ExpBuckets(0.0001, 4, 12), "span"),
			runSeconds:   reg.HistogramVec("hyfdd_job_run_seconds", "Execution time per job.", metrics.ExpBuckets(0.0001, 4, 12), "mode"),
			prepSeconds:  reg.Histogram("hyfdd_dataset_prepare_seconds", "One-off preparation time per registered dataset.", metrics.ExpBuckets(0.0001, 4, 12)),
			up:           reg.Gauge("hyfdd_up", "Always 1 while hyfdd serves."),
			httpRequests: reg.CounterVec("hyfdd_http_requests_total", "HTTP responses by status code.", "code"),
		}
		s.inst.up.Set(1)
	}
	return s
}

// Start launches the worker pool; workers run until Shutdown (or the base
// context) stops them.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		//hyfdvet:allow goroutine — pool workers intentionally outlive Start; Shutdown joins them via wg.Wait
		go s.worker()
	}
}

// worker executes queued jobs until the stop channel closes or the base
// context is canceled.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.base.Done():
			return
		case j := <-s.queue:
			s.inst.queueDepth.Add(-1)
			s.execute(j)
		}
	}
}

// submit admits one job: resolve the dataset, map the request, apply the
// deadline, and enqueue — or reject if the queue is full or the server is
// closing. The returned job is already in the store, its flight recorder
// (when tracing is enabled) already carrying the admission span.
func (s *Server) submit(req JobRequest) (*job, error) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		return nil, ErrShuttingDown
	}

	// The flight recorder spans admission from here on; rejected jobs never
	// reach the store, so their recorders vanish with them.
	var rec *tracing.Recorder
	if s.cfg.TraceCapacity >= 0 {
		rec = tracing.New(s.cfg.TraceCapacity)
	}
	root := rec.Start(spanJob, 0,
		tracing.String("dataset", req.Dataset), tracing.String("mode", req.Mode))
	adm := rec.Start(spanAdmission, root)

	ds, info, err := s.datasets.lookup(req.Dataset)
	if err != nil {
		return nil, err
	}
	hreq, err := mapRequest(req, ds)
	if err != nil {
		return nil, err
	}

	jctx, cancel := context.WithCancel(s.base)
	j := &job{
		ctx:       jctx,
		cancel:    cancel,
		ds:        ds,
		dsVersion: info.Version,
		request:   req,
		req:       hreq,
		status:    StatusQueued,
		createdAt: time.Now(),
		done:      make(chan struct{}),
		admitted:  make(chan struct{}),
		rec:       rec,
		root:      root,
	}
	// The deadline counts from submission — queue wait included — and is
	// enforced by the clock seam (a timer canceling the job context) rather
	// than context.WithDeadline, so tests can drive expiry without sleeping.
	if d := time.Duration(req.DeadlineMs) * time.Millisecond; d > 0 {
		j.deadline = s.cfg.clock.AfterFunc(d, j.expire)
	} else if s.cfg.DefaultDeadline > 0 {
		j.deadline = s.cfg.clock.AfterFunc(s.cfg.DefaultDeadline, j.expire)
	}

	// Admission control: claim a queue slot or reject immediately — a full
	// queue must never block the HTTP handler.
	select {
	case s.queue <- j:
	default:
		cancel()
		if j.deadline != nil {
			j.deadline.Stop()
		}
		s.inst.rejected.Inc()
		s.log.Warn("job rejected", "dataset", req.Dataset, "queue_depth", s.cfg.QueueDepth)
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	rec.End(adm)
	j.queueSpan = rec.Start(spanQueueWait, root)
	s.jobs.add(j)
	close(j.admitted)
	s.noteQueued()
	s.log.Info("job accepted", "job", j.id, "dataset", req.Dataset,
		"mode", req.Mode, "queue_depth", len(s.queue))
	return j, nil
}

// noteQueued maintains the queue depth gauges.
func (s *Server) noteQueued() {
	depth := int64(len(s.queue))
	s.inst.queueDepth.Set(float64(depth))
	s.mu.Lock()
	if depth > s.inst.peakDepthSeen {
		s.inst.peakDepthSeen = depth
		s.inst.queuePeak.Set(float64(depth))
	}
	s.mu.Unlock()
}

// execute runs one dequeued job to a terminal state, recording the run and
// encode stages (and, through the observer bridge, the engine's phases) in
// the job's flight recorder.
func (s *Server) execute(j *job) {
	<-j.admitted
	defer j.cancel()
	if !j.markRunning() {
		// Canceled while queued; nothing to run.
		j.closeTrace()
		return
	}
	j.rec.End(j.queueSpan)
	s.inst.running.Add(1)
	defer s.inst.running.Add(-1)
	j.mu.Lock()
	wait := j.startedAt.Sub(j.createdAt)
	j.mu.Unlock()
	s.inst.queueWait.Observe(wait.Seconds())

	req := j.req
	req.Options.Metrics = s.cfg.Metrics
	runSpan := j.rec.Start(spanRun, j.root,
		tracing.String("mode", string(req.Mode)), tracing.Int("threads", req.Options.Threads))
	req.Options.Observer = trace.Multi(req.Options.Observer, j.rec.Observer(runSpan))
	if req.Mode == hyfd.ModeRanked {
		// Ranked jobs stream: each stabilized rank lands on the job record
		// the moment the engine emits it, so GET mid-run returns the prefix.
		rel := j.ds.Relation()
		req.Options.Observer = trace.Multi(req.Options.Observer, trace.ObserverFunc(func(e trace.Event) {
			if ev, ok := e.(trace.RankedResult); ok {
				j.appendRanked(renderRanked(ev, rel))
			}
		}))
	}
	start := time.Now()
	res, err := hyfd.Run(j.ctx, req)
	elapsed := time.Since(start)
	j.rec.End(runSpan)
	mode := string(j.req.Mode)
	s.inst.runSeconds.With(mode).Observe(elapsed.Seconds())

	status, result := StatusDone, (*JobResult)(nil)
	switch {
	case err == nil:
		encSpan := j.rec.Start(spanEncode, j.root)
		result = renderResult(res, j.ds.Relation())
		j.rec.End(encSpan, tracing.Int("count", result.Count))
	case j.deadlineExpired():
		// The deadline timer canceled the context, so the engine reports a
		// plain cancellation; reclassify it as the timeout it is (504).
		err = fmt.Errorf("job deadline exceeded: %w", context.DeadlineExceeded)
		status = StatusFailed
	case jobCanceled(err):
		status = StatusCanceled
	default:
		status = StatusFailed
	}
	// Every server stage has ended: fold the stage spans before the
	// terminal status is published, so a client that sees the job finished
	// and scrapes /metrics at once finds them there.
	s.foldSpans(j)
	s.finish(j, status, result, err)
	j.closeTrace()
	s.noteFinished(j)
}

// finish takes the job to its terminal status unless another caller already
// has (a cancel racing a completion), and reports whether it did. The job
// counter is incremented before the status is published, so a client that
// sees the job finished and scrapes /metrics at once finds it counted.
func (s *Server) finish(j *job, status JobStatus, result *JobResult, err error) bool {
	if !j.claim() {
		return false
	}
	s.inst.jobsTotal.With(string(status)).Inc()
	j.publish(status, result, err)
	return true
}

// foldSpans folds a finished job's server-stage spans into the daemon-wide
// span histograms.
func (s *Server) foldSpans(j *job) {
	if j.rec == nil {
		return
	}
	for _, sp := range j.rec.Snapshot().Spans {
		switch sp.Name {
		case spanAdmission, spanQueueWait, spanRun, spanEncode:
			s.inst.spanSeconds.With(sp.Name).Observe(float64(sp.DurNs) / 1e9)
		}
	}
}

// noteFinished records one terminal job in the slowest-jobs ring and the
// structured completion log line.
func (s *Server) noteFinished(j *job) {
	v := j.view()
	s.slow.Note(tracing.SlowJob{
		ID:             v.ID,
		Dataset:        v.Request.Dataset,
		Mode:           v.Request.Mode,
		Status:         string(v.Status),
		QueueMs:        v.QueueMs,
		RunMs:          v.RunMs,
		TotalMs:        v.QueueMs + v.RunMs,
		FinishedUnixMs: time.Now().UnixMilli(),
	})
	s.log.Info("job finished", "job", v.ID, "status", v.Status,
		"queue_ms", v.QueueMs, "run_ms", v.RunMs, "error", v.Error)
}

// cancelJob cancels a job in any non-terminal state: queued jobs transition
// immediately (the worker skips them on dequeue), running jobs get their
// context canceled and transition when the engine unwinds.
func (s *Server) cancelJob(id string) (*job, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return nil, err
	}
	s.finish(j, StatusCanceled, nil, context.Canceled)
	j.cancel()
	return j, nil
}

// BeginShutdown gates admission: subsequent submissions fail with
// ErrShuttingDown (503). It is idempotent and safe before Shutdown.
func (s *Server) BeginShutdown() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
}

// Shutdown drains the server: admission closes, jobs still queued are
// canceled, in-flight jobs run until ctx's deadline, stragglers are
// canceled, and every worker is joined before it returns. The error is
// ctx.Err() when the grace deadline forced cancellations, nil on a clean
// drain. Shutdown is idempotent; a second call just waits for the workers
// again.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginShutdown()
	s.stopOnce.Do(func() { close(s.stop) })

	// Cancel everything still queued: shutdown drains in-flight work, not
	// the backlog. (A worker may race us to a queued job and run it; that
	// job is then in-flight and drains below.)
drain:
	for {
		select {
		case j := <-s.queue:
			s.inst.queueDepth.Add(-1)
			if s.finish(j, StatusCanceled, nil, fmt.Errorf("%w: %w", ErrShuttingDown, context.Canceled)) {
				j.closeTrace()
				s.foldSpans(j)
				s.noteFinished(j)
			}
			j.cancel()
		default:
			break drain
		}
	}
	s.log.Info("shutdown: queue drained, waiting for in-flight jobs",
		"running", len(s.jobs.running()))

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		err = ctx.Err()
		for _, j := range s.jobs.running() {
			j.cancel()
		}
		<-workersDone
	}
	s.inst.up.Set(0)
	return err
}

// retryAfter renders the 429 Retry-After hint in whole seconds (min 1).
// The hint scales with the backlog: the configured base covers one queue
// "round" (workers jobs draining), so a queue N rounds deep hints N× the
// base, capped at five minutes. Clients should add their own jitter — every
// rejected client seeing the same hint would otherwise retry in lockstep
// (see README, API section).
func (s *Server) retryAfter() string {
	rounds := 1
	if depth := len(s.queue); depth > s.cfg.Workers {
		rounds = (depth + s.cfg.Workers - 1) / s.cfg.Workers
	}
	d := time.Duration(rounds) * s.cfg.RetryAfter
	if max := 5 * time.Minute; d > max {
		d = max
	}
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Handler returns the server's HTTP mux: the versioned job API plus the
// process observability surfaces.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetCreate)
	mux.HandleFunc("POST /v1/datasets/{name}/delta", s.handleDatasetDelta)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleDatasetGet)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDatasetDelete)
	mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /debug/slowjobs", s.handleSlowJobs)
	if reg := s.cfg.Metrics; reg != nil {
		mux.Handle("GET /metrics", metrics.Handler(reg))
		mux.Handle("GET /metrics.json", metrics.JSONHandler(reg))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.countRequests(mux)
}

// countRequests wraps the mux with the hyfdd_http_requests_total{code}
// counter and a per-request access log line carrying the request id (the
// client's X-Request-Id when present, a server-assigned sequence id
// otherwise).
func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = "r-" + strconv.FormatInt(s.nextReq.Add(1), 10)
		}
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(cw, r)
		s.inst.httpRequests.With(strconv.Itoa(cw.code)).Inc()
		s.log.Debug("http request", "id", rid, "method", r.Method,
			"path", r.URL.Path, "code", cw.code,
			"duration_ms", float64(time.Since(start).Microseconds())/1000)
	})
}

// codeWriter records the response status code.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
