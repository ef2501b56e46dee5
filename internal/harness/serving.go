// Serving-capacity harness: deterministic synthetic request traces replayed
// against a live hyfdd server. The trace generator is seeded, so the exact
// request sequence — arrival offsets, dataset mix, workload mix — is
// reproducible bit for bit; only the measured latencies vary with the
// hardware. cmd/bench -exp serving drives RunServing and archives the
// result as BENCH_serving.json (EXPERIMENTS.md documents the methodology).

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hyfd"
	"hyfd/internal/metrics"
	"hyfd/internal/server"
)

// TraceDataset is one dataset in a serving trace's workload mix: a synthetic
// catalog dataset scaled to Rows×Cols, registered under Name before the
// replay starts, and then picked per request with probability proportional
// to Weight. Varying Rows across entries is the trace's dataset-size
// distribution.
type TraceDataset struct {
	Name    string  `json:"name"`
	Dataset string  `json:"dataset"`
	Rows    int     `json:"rows,omitempty"`
	Cols    int     `json:"cols,omitempty"`
	Weight  float64 `json:"weight"`
}

// TraceMode weights one discovery mode (fd, afd, ucc) in the workload mix.
type TraceMode struct {
	Mode   string  `json:"mode"`
	Weight float64 `json:"weight"`
}

// ServingTraceSpec fully determines one synthetic request trace. Two specs
// with equal fields generate identical traces (GenTrace is a pure function
// of the spec), which is what makes replays comparable across commits.
type ServingTraceSpec struct {
	// Seed feeds the trace's PRNG; every random choice (arrival jitter,
	// dataset pick, mode pick) derives from it.
	Seed int64 `json:"seed"`
	// Requests is the trace length.
	Requests int `json:"requests"`
	// OfferedRPS is the offered load: the mean arrival rate in requests
	// per second.
	OfferedRPS float64 `json:"offered_rps"`
	// Arrival selects the arrival process: "uniform" (constant spacing),
	// "poisson" (exponential inter-arrivals), or "burst" (groups of
	// BurstSize back-to-back arrivals at the offered mean rate).
	Arrival string `json:"arrival"`
	// BurstSize is the burst arrival group size (0 = 8).
	BurstSize int `json:"burst_size,omitempty"`
	// Datasets is the dataset mix (at least one entry).
	Datasets []TraceDataset `json:"datasets"`
	// Modes is the workload mix (at least one entry).
	Modes []TraceMode `json:"modes"`
	// MaxLhs bounds every job's LHS/UCC size (0 = unbounded).
	MaxLhs int `json:"max_lhs,omitempty"`
	// MaxError is the g3 threshold applied to afd-mode jobs.
	MaxError float64 `json:"max_error,omitempty"`
	// Threads is the per-job engine thread count (0 = server default).
	Threads int `json:"threads,omitempty"`
}

// TraceEvent is one scheduled request of a generated trace.
type TraceEvent struct {
	// OffsetMs is the request's submission time relative to replay start.
	OffsetMs float64 `json:"offset_ms"`
	Dataset  string  `json:"dataset"`
	Mode     string  `json:"mode"`
}

// GenTrace deterministically expands a spec into its request schedule. The
// same spec always yields the same events, independent of hardware, wall
// clock, or previous calls.
func GenTrace(spec ServingTraceSpec) ([]TraceEvent, error) {
	if spec.Requests <= 0 {
		return nil, fmt.Errorf("harness: trace needs requests > 0")
	}
	if spec.OfferedRPS <= 0 {
		return nil, fmt.Errorf("harness: trace needs offered_rps > 0")
	}
	if len(spec.Datasets) == 0 || len(spec.Modes) == 0 {
		return nil, fmt.Errorf("harness: trace needs at least one dataset and one mode")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	interval := 1000 / spec.OfferedRPS // mean spacing in ms
	burst := spec.BurstSize
	if burst <= 0 {
		burst = 8
	}
	events := make([]TraceEvent, spec.Requests)
	offset := 0.0
	for i := range events {
		switch spec.Arrival {
		case "", "uniform":
			offset = float64(i) * interval
		case "poisson":
			if i > 0 {
				offset += rng.ExpFloat64() * interval
			}
		case "burst":
			// Group arrivals: burst members land together, groups are
			// spaced so the mean rate stays OfferedRPS.
			offset = float64(i/burst) * interval * float64(burst)
		default:
			return nil, fmt.Errorf("harness: unknown arrival process %q (uniform, poisson, burst)", spec.Arrival)
		}
		events[i] = TraceEvent{
			OffsetMs: offset,
			Dataset:  spec.Datasets[weightedPick(rng, datasetWeights(spec.Datasets))].Name,
			Mode:     spec.Modes[weightedPick(rng, modeWeights(spec.Modes))].Mode,
		}
	}
	return events, nil
}

func datasetWeights(ds []TraceDataset) []float64 {
	w := make([]float64, len(ds))
	for i, d := range ds {
		w[i] = d.Weight
	}
	return w
}

func modeWeights(ms []TraceMode) []float64 {
	w := make([]float64, len(ms))
	for i, m := range ms {
		w[i] = m.Weight
	}
	return w
}

// weightedPick draws an index with probability proportional to weights;
// non-positive weights never win unless all are non-positive (then index 0).
func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// LatencyStats condenses a latency sample into the serving report's
// percentiles (milliseconds).
type LatencyStats struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// latencyStats computes the percentile summary of a sample (nearest-rank on
// the sorted sample; zero value for an empty sample).
func latencyStats(sample []float64) LatencyStats {
	if len(sample) == 0 {
		return LatencyStats{}
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return LatencyStats{
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}

// ServingLevel is the measured outcome of replaying one trace (one offered
// load level) against a live server.
type ServingLevel struct {
	Spec ServingTraceSpec `json:"spec"`
	// WallSeconds is the replay's wall time: first submission to last
	// terminal job status.
	WallSeconds float64 `json:"wall_seconds"`
	Requests    int     `json:"requests"`
	// Accepted counts 202 admissions, Rejected the 429 admission-control
	// rejections; Done/Failed/Canceled split the accepted jobs by terminal
	// status.
	Accepted   int     `json:"accepted"`
	Rejected   int     `json:"rejected_429"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Canceled   int     `json:"canceled"`
	RejectRate float64 `json:"reject_rate"`
	// AchievedRPS is the completed-job throughput over the replay wall time.
	AchievedRPS float64 `json:"achieved_rps"`
	// LatencyMs is the client-observed end-to-end latency (submit → terminal
	// status observed) of accepted jobs; QueueMs and RunMs are the
	// server-reported queue-wait and execution splits.
	LatencyMs LatencyStats `json:"latency_ms"`
	QueueMs   LatencyStats `json:"queue_ms"`
	RunMs     LatencyStats `json:"run_ms"`
	// MaxQueueDepthSampled is the deepest /healthz queue the client sampler
	// observed; PeakQueueDepth is the server's own hyfdd_queue_depth_peak
	// gauge (authoritative — the sampler can miss instants).
	MaxQueueDepthSampled int `json:"max_queue_depth_sampled"`
	PeakQueueDepth       int `json:"peak_queue_depth"`
	// SpanQueueWaitP99Ms and SpanRunP99Ms are the server-side p99 of the
	// queue.wait and run stages from the hyfdd_span_seconds histogram —
	// the flight-recorder-derived split of serving latency, measured by
	// the server itself rather than inferred by the polling client.
	SpanQueueWaitP99Ms float64 `json:"span_queue_wait_p99_ms"`
	SpanRunP99Ms       float64 `json:"span_run_p99_ms"`
	// MaxPrepareNs is the largest per-job preprocessing time reported in
	// job stats. Jobs run warm against registered datasets, so this stays
	// near zero — the prepare-once contract observed through the API.
	MaxPrepareNs int64 `json:"max_prepare_ns"`
	// ResultCounts records the result cardinality per dataset/mode pair;
	// every job on the same pair must agree (checked during replay), which
	// pins result determinism through the serving path.
	ResultCounts map[string]int `json:"result_counts"`
}

// replayConfig tunes the replay client's polling cadence.
type replayConfig struct {
	client         *http.Client
	pollInterval   time.Duration
	sampleInterval time.Duration
}

// ReplayTrace replays a generated trace against a live server at baseURL:
// each event is submitted at its scheduled offset, accepted jobs are polled
// to a terminal status, and the level report aggregates the outcome.
// Datasets named by the trace must already be registered.
func ReplayTrace(ctx context.Context, baseURL string, spec ServingTraceSpec, events []TraceEvent) (*ServingLevel, error) {
	return replayTrace(ctx, baseURL, spec, events, replayConfig{
		client:         &http.Client{Timeout: 30 * time.Second},
		pollInterval:   time.Millisecond,
		sampleInterval: 2 * time.Millisecond,
	})
}

// requestOutcome is one replayed request's record.
type requestOutcome struct {
	rejected  bool
	status    string
	latencyMs float64
	queueMs   float64
	runMs     float64
	prepNs    int64
	results   int
	key       string // dataset/mode
	err       error
}

func replayTrace(ctx context.Context, baseURL string, spec ServingTraceSpec, events []TraceEvent, cfg replayConfig) (*ServingLevel, error) {
	outcomes := make([]requestOutcome, len(events))
	start := time.Now()

	// Queue-depth sampler: poll /healthz for the queued count while the
	// replay is in flight.
	sampleCtx, stopSampler := context.WithCancel(ctx)
	defer stopSampler()
	var maxDepth int
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		ticker := time.NewTicker(cfg.sampleInterval)
		defer ticker.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-ticker.C:
				if d, ok := sampleQueueDepth(cfg.client, baseURL); ok && d > maxDepth {
					maxDepth = d
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i, ev := range events {
		wg.Add(1)
		go func(i int, ev TraceEvent) {
			defer wg.Done()
			due := start.Add(time.Duration(ev.OffsetMs * float64(time.Millisecond)))
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					outcomes[i] = requestOutcome{err: ctx.Err()}
					return
				}
			}
			outcomes[i] = replayOne(ctx, baseURL, spec, ev, cfg)
		}(i, ev)
	}
	wg.Wait()
	wall := time.Since(start)
	stopSampler()
	samplerWG.Wait()

	level := &ServingLevel{
		Spec:         spec,
		WallSeconds:  wall.Seconds(),
		Requests:     len(events),
		ResultCounts: map[string]int{},
	}
	var latencies, queueWaits, runTimes []float64
	for _, o := range outcomes {
		if o.err != nil {
			return nil, fmt.Errorf("harness: replay request failed: %w", o.err)
		}
		if o.rejected {
			level.Rejected++
			continue
		}
		level.Accepted++
		switch o.status {
		case "done":
			level.Done++
			latencies = append(latencies, o.latencyMs)
			queueWaits = append(queueWaits, o.queueMs)
			runTimes = append(runTimes, o.runMs)
			if o.prepNs > level.MaxPrepareNs {
				level.MaxPrepareNs = o.prepNs
			}
			if prev, seen := level.ResultCounts[o.key]; seen && prev != o.results {
				return nil, fmt.Errorf("harness: nondeterministic serving result for %s: %d vs %d dependencies", o.key, prev, o.results)
			}
			level.ResultCounts[o.key] = o.results
		case "canceled":
			level.Canceled++
		default:
			level.Failed++
		}
	}
	level.RejectRate = float64(level.Rejected) / float64(level.Requests)
	if level.WallSeconds > 0 {
		level.AchievedRPS = float64(level.Done) / level.WallSeconds
	}
	level.LatencyMs = latencyStats(latencies)
	level.QueueMs = latencyStats(queueWaits)
	level.RunMs = latencyStats(runTimes)
	level.MaxQueueDepthSampled = maxDepth
	level.PeakQueueDepth = scrapePeakQueueDepth(cfg.client, baseURL)
	level.SpanQueueWaitP99Ms = scrapeSpanP99Ms(cfg.client, baseURL, "queue.wait")
	level.SpanRunP99Ms = scrapeSpanP99Ms(cfg.client, baseURL, "run")
	return level, nil
}

// replayOne submits one job and polls it to a terminal state.
func replayOne(ctx context.Context, baseURL string, spec ServingTraceSpec, ev TraceEvent, cfg replayConfig) requestOutcome {
	out := requestOutcome{key: ev.Dataset + "/" + ev.Mode}
	req := server.JobRequest{
		Dataset:  ev.Dataset,
		Mode:     ev.Mode,
		MaxLhs:   spec.MaxLhs,
		Threads:  spec.Threads,
		MaxError: spec.MaxError,
	}
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	submitted := time.Now()
	resp, err := cfg.client.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	var view server.JobView
	decodeErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		out.rejected = true
		return out
	case resp.StatusCode != http.StatusAccepted:
		out.err = fmt.Errorf("POST /v1/jobs: unexpected status %d", resp.StatusCode)
		return out
	case decodeErr != nil:
		out.err = decodeErr
		return out
	}

	for {
		select {
		case <-ctx.Done():
			out.err = ctx.Err()
			return out
		case <-time.After(cfg.pollInterval):
		}
		resp, err := cfg.client.Get(baseURL + "/v1/jobs/" + view.ID)
		if err != nil {
			out.err = err
			return out
		}
		var cur server.JobView
		decodeErr := json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if decodeErr != nil {
			out.err = decodeErr
			return out
		}
		switch cur.Status {
		case server.StatusDone, server.StatusFailed, server.StatusCanceled:
			out.status = string(cur.Status)
			out.latencyMs = time.Since(submitted).Seconds() * 1000
			out.queueMs = cur.QueueMs
			out.runMs = cur.RunMs
			if cur.Result != nil {
				out.results = cur.Result.Count
				if cur.Result.Stats != nil {
					out.prepNs = cur.Result.Stats.PreprocessingTime.Nanoseconds()
				}
			}
			return out
		}
	}
}

// sampleQueueDepth reads the queued count from /healthz.
func sampleQueueDepth(client *http.Client, baseURL string) (int, bool) {
	resp, err := client.Get(baseURL + "/healthz")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var h struct {
		Queued int `json:"queued"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) != nil {
		return 0, false
	}
	return h.Queued, true
}

// scrapePeakQueueDepth reads the server's hyfdd_queue_depth_peak gauge from
// /metrics.json (0 when the surface is unavailable).
func scrapePeakQueueDepth(client *http.Client, baseURL string) int {
	resp, err := client.Get(baseURL + "/metrics.json")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return 0
	}
	peak, _ := snap.Gauge("hyfdd_queue_depth_peak")
	return int(peak)
}

// scrapeSpanP99Ms reads the p99 of one hyfdd_span_seconds{span} stage from
// /metrics.json, in milliseconds (0 when the surface or series is absent).
func scrapeSpanP99Ms(client *http.Client, baseURL, span string) float64 {
	resp, err := client.Get(baseURL + "/metrics.json")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return 0
	}
	hs, ok := snap.Histogram("hyfdd_span_seconds", "span", span)
	if !ok {
		return 0
	}
	return hs.Quantiles["p99"] * 1000
}

// waitReady polls GET /readyz until the server reports ready (or the
// deadline passes) — the same startup gate a production load balancer uses.
func waitReady(ctx context.Context, client *http.Client, baseURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(baseURL + "/readyz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: server not ready after %s", timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// ServingOptions parameterizes RunServing: the server shape plus the trace
// family replayed at each offered load level.
type ServingOptions struct {
	// Workers and QueueDepth shape the server under test.
	Workers    int
	QueueDepth int
	// Requests is the per-level trace length; LoadsRPS the offered load
	// levels (the capacity sweep's x-axis, ≥ 3 for the committed artifact).
	Requests int
	LoadsRPS []float64
	// Seed, Arrival, Threads, MaxLhs, MaxError, Datasets, Modes are the
	// trace-family parameters shared by every level.
	Seed     int64
	Arrival  string
	Threads  int
	MaxLhs   int
	MaxError float64
	Datasets []TraceDataset
	Modes    []TraceMode
}

// DefaultServingOptions is the committed BENCH_serving.json configuration:
// a small fixed server (2 workers, queue 16) swept across under-load,
// saturation, and over-load so the three regimes — low latency, queue
// growth, admission-control rejection — all appear in one artifact.
func DefaultServingOptions() ServingOptions {
	return ServingOptions{
		Workers:    2,
		QueueDepth: 16,
		Requests:   400,
		LoadsRPS:   []float64{25, 100, 400},
		Seed:       1,
		Arrival:    "poisson",
		Threads:    1,
		MaxLhs:     4,
		MaxError:   0.05,
		Datasets: []TraceDataset{
			{Name: "small", Dataset: "iris", Weight: 0.45},
			{Name: "medium", Dataset: "bridges", Weight: 0.35},
			{Name: "large", Dataset: "abalone", Rows: 1000, Weight: 0.20},
		},
		Modes: []TraceMode{
			{Mode: "fd", Weight: 0.6},
			{Mode: "ucc", Weight: 0.25},
			{Mode: "afd", Weight: 0.15},
		},
	}
}

// ServingArtifact is the machine-readable record of one serving-capacity
// sweep (BENCH_serving.json).
type ServingArtifact struct {
	Experiment  string `json:"experiment"`
	Title       string `json:"title"`
	CreatedUnix int64  `json:"created_unix"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	// GOMAXPROCS and SingleCPUCaveat mirror Artifact: the scheduler ceiling
	// the sweep actually ran under, and whether one schedulable CPU makes
	// the concurrency results time-slicing artifacts.
	GOMAXPROCS      int            `json:"gomaxprocs"`
	SingleCPUCaveat bool           `json:"single_cpu_caveat"`
	Workers         int            `json:"workers"`
	QueueDepth      int            `json:"queue_depth"`
	Levels          []ServingLevel `json:"levels"`
}

// Filename returns the artifact's canonical file name.
func (a ServingArtifact) Filename() string { return "BENCH_serving.json" }

// WriteFile writes the artifact as indented JSON into dir and returns the
// full path.
func (a ServingArtifact) WriteFile(dir string) (string, error) {
	path := filepath.Join(dir, a.Filename())
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// RunServing stands up an in-process hyfdd server (the real mux and worker
// pool behind an httptest listener), registers the trace's datasets once,
// and replays one trace per offered load level against a fresh server
// instance (fresh so queue-depth gauges and job counters are per-level).
func RunServing(ctx context.Context, opts ServingOptions) (*ServingArtifact, error) {
	if len(opts.LoadsRPS) == 0 {
		return nil, fmt.Errorf("harness: serving sweep needs at least one load level")
	}
	art := &ServingArtifact{
		Experiment:  "serving",
		Title:       "Serving capacity — offered load vs latency, queue depth, and 429 rate",
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     opts.Workers,
		QueueDepth:  opts.QueueDepth,
	}
	art.SingleCPUCaveat = art.NumCPU <= 1 || art.GOMAXPROCS <= 1
	for _, rps := range opts.LoadsRPS {
		spec := ServingTraceSpec{
			Seed:       opts.Seed,
			Requests:   opts.Requests,
			OfferedRPS: rps,
			Arrival:    opts.Arrival,
			Datasets:   opts.Datasets,
			Modes:      opts.Modes,
			MaxLhs:     opts.MaxLhs,
			MaxError:   opts.MaxError,
			Threads:    opts.Threads,
		}
		level, err := runServingLevel(ctx, opts, spec)
		if err != nil {
			return nil, err
		}
		art.Levels = append(art.Levels, *level)
	}
	return art, nil
}

// runServingLevel measures one offered load level against a fresh server.
func runServingLevel(ctx context.Context, opts ServingOptions, spec ServingTraceSpec) (*ServingLevel, error) {
	events, err := GenTrace(spec)
	if err != nil {
		return nil, err
	}
	reg := hyfd.NewMetricsRegistry()
	srv := server.New(ctx, server.Config{
		Workers:    opts.Workers,
		QueueDepth: opts.QueueDepth,
		Metrics:    reg,
	})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Detached from ctx on purpose: the post-level drain must run to
	// completion even when the sweep's own context has been canceled.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	defer srv.Shutdown(shutdownCtx)

	client := ts.Client()
	if err := waitReady(ctx, client, ts.URL, 5*time.Second); err != nil {
		return nil, err
	}
	for _, d := range spec.Datasets {
		if err := registerTraceDataset(client, ts.URL, d, spec.Threads); err != nil {
			return nil, err
		}
	}
	return replayTrace(ctx, ts.URL, spec, events, replayConfig{
		client:         client,
		pollInterval:   time.Millisecond,
		sampleInterval: 2 * time.Millisecond,
	})
}

// registerTraceDataset registers one synthetic dataset over the API, so the
// replay exercises exactly the path a production client would.
func registerTraceDataset(client *http.Client, baseURL string, d TraceDataset, threads int) error {
	req := server.DatasetRequest{
		Name:     d.Name,
		Generate: &server.GenerateSpec{Dataset: d.Dataset, Rows: d.Rows, Cols: d.Cols},
		Threads:  threads,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(baseURL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("harness: registering %q: status %d: %s", d.Name, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// RenderServing writes the human-readable capacity table cmd/bench prints
// alongside the artifact.
func RenderServing(w io.Writer, art *ServingArtifact) {
	fmt.Fprintf(w, "serving capacity — workers=%d queue=%d (%d requests per level)\n",
		art.Workers, art.QueueDepth, requestsPerLevel(art))
	fmt.Fprintf(w, "%10s %10s %8s %8s | %9s %9s %9s | %9s %9s | %6s %6s\n",
		"offered", "achieved", "done", "429", "p50 ms", "p95 ms", "p99 ms", "qw p99", "run p99", "queue", "rej %")
	for _, l := range art.Levels {
		fmt.Fprintf(w, "%8.0f/s %8.1f/s %8d %8d | %9.2f %9.2f %9.2f | %9.2f %9.2f | %6d %5.1f%%\n",
			l.Spec.OfferedRPS, l.AchievedRPS, l.Done, l.Rejected,
			l.LatencyMs.P50, l.LatencyMs.P95, l.LatencyMs.P99,
			l.SpanQueueWaitP99Ms, l.SpanRunP99Ms,
			l.PeakQueueDepth, 100*l.RejectRate)
	}
}

func requestsPerLevel(art *ServingArtifact) int {
	if len(art.Levels) == 0 {
		return 0
	}
	return art.Levels[0].Requests
}
