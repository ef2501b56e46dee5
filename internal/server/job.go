package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyfd"
	"hyfd/internal/tracing"
)

// JobRequest is the JSON body of POST /v1/jobs: one discovery job. It maps
// 1:1 onto hyfd.Request — dataset resolves to the registered prepared
// Dataset, and the remaining fields fill Request and its Options.
type JobRequest struct {
	// Dataset names a registered dataset (see POST /v1/datasets).
	Dataset string `json:"dataset"`
	// Algorithm selects the fd-mode algorithm ("" = HyFD).
	Algorithm string `json:"algorithm,omitempty"`
	// Mode is fd (default), afd, or ucc.
	Mode string `json:"mode,omitempty"`
	// MaxLhs bounds LHS/UCC sizes (0 = unbounded).
	MaxLhs int `json:"max_lhs,omitempty"`
	// MaxError is afd mode's g3 threshold.
	MaxError float64 `json:"max_error,omitempty"`
	// Threads overrides the worker count (0 inherits the dataset's).
	Threads int `json:"threads,omitempty"`
	// DeadlineMs bounds the job's total time — queue wait included — in
	// milliseconds (0 = the server's default deadline, if any).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Threshold overrides HyFD's efficiency threshold (0 = paper default).
	Threshold float64 `json:"threshold,omitempty"`
	// MemoryBudgetMB arms the memory Guardian (0 = disabled).
	MemoryBudgetMB int `json:"memory_budget_mb,omitempty"`
	// TopK is ranked mode's result budget: the job returns the k
	// best-scoring FDs and terminates as soon as that prefix is provably
	// stable (0 = rank the complete cover). Ignored by the other modes.
	TopK int `json:"top_k,omitempty"`
	// MinScore is ranked mode's score floor: results below it are dropped
	// and the run stops once no candidate can reach it (0 = disabled).
	MinScore float64 `json:"min_score,omitempty"`
}

// JobStatus is a job's lifecycle state.
type JobStatus string

// The job lifecycle: queued → running → done | failed | canceled.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// JobResult is the payload of a finished job. FDs/AFDs/UCCs are rendered
// against the dataset's column names, one dependency per string, in the
// engine's canonical (deterministic) order — a warm job's fds lines are
// byte-identical to a cold cmd/hyfd run on the same input. Ranked jobs fill
// Ranked instead, in score order; while such a job is still running (or
// after a cancel that beat completion), GET synthesizes a Partial result
// from the ranks streamed so far — the any-time contract.
type JobResult struct {
	FDs    []string     `json:"fds,omitempty"`
	AFDs   []string     `json:"afds,omitempty"`
	UCCs   []string     `json:"uccs,omitempty"`
	Ranked []RankedItem `json:"ranked,omitempty"`
	// Partial marks a ranked payload assembled mid-run: it carries the
	// stable prefix emitted so far, not the job's final result. Every rank
	// in it is final — later polls only ever append.
	Partial bool        `json:"partial,omitempty"`
	Count   int         `json:"count"`
	Stats   *hyfd.Stats `json:"stats,omitempty"`
}

// RankedItem is one ranked-mode result: an FD rendered against the
// dataset's column names with its score and final 1-based rank.
type RankedItem struct {
	FD    string  `json:"fd"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
}

// JobView is the JSON representation of a job (GET /v1/jobs/{id}).
type JobView struct {
	ID      string     `json:"id"`
	Status  JobStatus  `json:"status"`
	Request JobRequest `json:"request"`
	// DatasetVersion is the snapshot version the job was pinned to at
	// admission. Deltas applied after admission advance the registration but
	// never this job: its result is exact for exactly this version.
	DatasetVersion int `json:"dataset_version"`
	// Error is set for failed jobs; its HTTP equivalent is ErrorStatus.
	Error       string `json:"error,omitempty"`
	ErrorStatus int    `json:"error_status,omitempty"`
	// QueueMs and RunMs split the job's latency into queue wait and
	// execution; RunMs excludes preprocessing, which the dataset paid at
	// registration.
	QueueMs       float64    `json:"queue_ms"`
	RunMs         float64    `json:"run_ms"`
	CreatedUnixMs int64      `json:"created_unix_ms"`
	Result        *JobResult `json:"result,omitempty"`
}

// job is the server-internal job record.
type job struct {
	id  string
	seq int

	// ctx governs the run: derived from the server's base context, with
	// the job deadline applied from submission time (queue wait counts).
	ctx    context.Context
	cancel context.CancelFunc

	ds        *hyfd.Dataset // snapshot resolved at admission; immutable
	dsVersion int           // its version — the job's pin
	request   JobRequest
	req       hyfd.Request // the mapped hyfd request (sans context)

	// rec is the job's flight recorder (nil when tracing is disabled);
	// root is its "job" span and queueSpan the "queue.wait" span opened at
	// enqueue time. All recorder methods are nil-safe, so untraced jobs
	// pay only nil checks.
	rec       *tracing.Recorder
	root      tracing.SpanID
	queueSpan tracing.SpanID

	// deadline stops the job's expiry callback once it reaches a terminal
	// state; nil when the job runs unbounded.
	deadline timer

	mu        sync.Mutex
	status    JobStatus
	err       error
	result    *JobResult
	timedOut  bool         // the deadline timer fired; classify the abort as 504
	ranked    []RankedItem // ranked-mode results streamed so far, in rank order
	createdAt time.Time
	startedAt time.Time
	doneAt    time.Time
	done      chan struct{} // closed on reaching a terminal status
	claimed   bool          // a caller holds the terminal transition (see claim)
	// admitted is closed by submit once the job is in the store with its
	// id and queue.wait span; a worker may dequeue the job before that,
	// so execute waits for it.
	admitted chan struct{}
}

// expire is the deadline timer's callback: it marks the deadline as the
// abort cause and cancels the run. The terminal classification happens in
// execute once the engine unwinds.
func (j *job) expire() {
	j.mu.Lock()
	j.timedOut = true
	j.mu.Unlock()
	j.cancel()
}

// deadlineExpired reports whether the job's deadline timer fired.
func (j *job) deadlineExpired() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.timedOut
}

// appendRanked records one streamed ranked result; results arrive in rank
// order from the engine's coordinating goroutine.
func (j *job) appendRanked(it RankedItem) {
	j.mu.Lock()
	j.ranked = append(j.ranked, it)
	j.mu.Unlock()
}

// view snapshots the job for JSON rendering.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:             j.id,
		Status:         j.status,
		Request:        j.request,
		DatasetVersion: j.dsVersion,
		CreatedUnixMs:  j.createdAt.UnixMilli(),
		Result:         j.result,
	}
	if j.err != nil {
		v.Error = j.err.Error()
		v.ErrorStatus = StatusFor(j.err)
	}
	// A ranked job without a final payload — still running, or terminal
	// without completing — exposes the stable prefix streamed so far.
	if v.Result == nil && len(j.ranked) > 0 {
		items := make([]RankedItem, len(j.ranked))
		copy(items, j.ranked)
		v.Result = &JobResult{Ranked: items, Count: len(items), Partial: true}
	}
	switch j.status {
	case StatusQueued:
		// still waiting; QueueMs grows until a worker picks the job up
		v.QueueMs = time.Since(j.createdAt).Seconds() * 1000
	case StatusRunning:
		v.QueueMs = j.startedAt.Sub(j.createdAt).Seconds() * 1000
		v.RunMs = time.Since(j.startedAt).Seconds() * 1000
	default:
		if !j.startedAt.IsZero() {
			v.QueueMs = j.startedAt.Sub(j.createdAt).Seconds() * 1000
			v.RunMs = j.doneAt.Sub(j.startedAt).Seconds() * 1000
		} else {
			v.QueueMs = j.doneAt.Sub(j.createdAt).Seconds() * 1000
		}
	}
	return v
}

// claim reserves the job's one terminal transition for the caller and
// reports whether it won; later claims (e.g. a cancel racing a completion)
// lose. The winner publishes the terminal status (see Server.finish).
func (j *job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.claimed {
		return false
	}
	j.claimed = true
	return true
}

// publish moves a claimed job to its terminal status and wakes waiters.
func (j *job) publish(status JobStatus, result *JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.result = result
	j.err = err
	j.doneAt = time.Now()
	if j.deadline != nil {
		j.deadline.Stop()
	}
	close(j.done)
}

// closeTrace finishes the job's flight recorder at a terminal state: the
// queue.wait span (a no-op when execute already ended it) and the root span,
// stamped with the job's outcome. Ending a span twice is a no-op, so
// closeTrace is safe from every terminal path.
func (j *job) closeTrace() {
	if j.rec == nil {
		return
	}
	j.rec.End(j.queueSpan)
	j.mu.Lock()
	status, id := j.status, j.id
	j.mu.Unlock()
	j.rec.End(j.root, tracing.String("id", id), tracing.String("status", string(status)))
}

// markRunning records the queue-to-run handoff; it reports false when the
// job was canceled while queued.
func (j *job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.startedAt = time.Now()
	return true
}

// jobStore holds every job the server has accepted, by id.
type jobStore struct {
	mu   sync.RWMutex
	jobs map[string]*job
	next int
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job)}
}

// add assigns the next id and stores the job. The id is written under the
// job's own mutex too: add runs after the job is already enqueued, so a
// worker may concurrently read j.id through view or closeTrace.
func (s *jobStore) add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	j.seq = s.next
	// The nesting order store.mu > job.mu is the fixed lock hierarchy: no
	// job-mutex holder ever takes the store mutex, and the inner region is
	// two assignments — it cannot block.
	//hyfdvet:allow lockcheck audited nesting: store.mu > job.mu is the only order used module-wide; inner critical section is non-blocking
	j.mu.Lock()
	j.id = "j-" + strconv.Itoa(s.next)
	j.mu.Unlock()
	s.jobs[j.id] = j
}

func (s *jobStore) get(id string) (*job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// list snapshots all jobs in submission order.
func (s *jobStore) list() []*job {
	s.mu.RLock()
	out := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].seq < out[k].seq })
	return out
}

// running snapshots the jobs currently in StatusRunning.
func (s *jobStore) running() []*job {
	var out []*job
	for _, j := range s.list() {
		j.mu.Lock()
		r := j.status == StatusRunning
		j.mu.Unlock()
		if r {
			out = append(out, j)
		}
	}
	return out
}

// renderResult formats a finished hyfd.Result against the relation's column
// names, in the engine's canonical order.
func renderResult(res *hyfd.Result, rel *hyfd.Relation) *JobResult {
	out := &JobResult{Stats: res.Stats}
	switch {
	case res.Ranked != nil:
		out.Ranked = make([]RankedItem, 0, len(res.Ranked))
		for _, r := range res.Ranked {
			out.Ranked = append(out.Ranked, RankedItem{FD: r.FD.Format(rel), Score: r.Score, Rank: r.Rank})
		}
		out.Count = len(out.Ranked)
	case res.Set != nil:
		out.FDs = make([]string, 0, len(res.FDs))
		for _, f := range res.FDs {
			out.FDs = append(out.FDs, f.Format(rel))
		}
		out.Count = len(out.FDs)
	case res.AFDs != nil:
		out.AFDs = make([]string, 0, len(res.AFDs))
		for _, a := range res.AFDs {
			out.AFDs = append(out.AFDs, fmt.Sprintf("%s -> %s (g3=%.4f)", renderAttrs(a.Lhs, rel), rel.Columns[a.Rhs], a.Error))
		}
		out.Count = len(out.AFDs)
	default:
		out.UCCs = make([]string, 0, len(res.UCCs))
		for _, u := range res.UCCs {
			out.UCCs = append(out.UCCs, renderAttrs(u, rel))
		}
		out.Count = len(out.UCCs)
	}
	return out
}

// renderRanked formats one streamed ranked-result event against the
// relation's column names, matching the terminal JobResult rendering (and
// fd.Format's style).
func renderRanked(ev hyfd.RankedResult, rel *hyfd.Relation) RankedItem {
	names := make([]string, 0, len(ev.Lhs))
	for _, a := range ev.Lhs {
		names = append(names, rel.Columns[a])
	}
	return RankedItem{
		FD:    "[" + strings.Join(names, ",") + "] -> " + rel.Columns[ev.Rhs],
		Score: ev.Score,
		Rank:  ev.Rank,
	}
}

// renderAttrs formats an attribute set as [col1,col2], matching cmd/hyfd's
// rendering.
func renderAttrs(set hyfd.AttrSet, rel *hyfd.Relation) string {
	var names []string
	set.ForEach(func(a int) bool {
		names = append(names, rel.Columns[a])
		return true
	})
	return "[" + strings.Join(names, ",") + "]"
}

// mapRequest translates the wire JobRequest into a hyfd.Request over the
// resolved dataset — the 1:1 mapping the API was designed around.
func mapRequest(req JobRequest, ds *hyfd.Dataset) (hyfd.Request, error) {
	mode, err := hyfd.ParseMode(req.Mode)
	if err != nil {
		return hyfd.Request{}, err
	}
	// Incremental maintenance is not a job: it needs a base cover and a delta,
	// neither of which the job API transports. Ingest goes through
	// POST /v1/datasets/{name}/delta; jobs then run over the new version.
	if mode == hyfd.ModeIncremental {
		return hyfd.Request{}, fmt.Errorf("%w: mode %q is not a job mode; apply deltas via POST /v1/datasets/{name}/delta and submit a discovery job over the new version",
			ErrBadRequest, mode)
	}
	// Validate the algorithm at admission, not at run time: a job that can
	// only fail should be a 400 on POST, not a failed job in the store.
	if req.Algorithm != "" {
		if mode != hyfd.ModeFD {
			return hyfd.Request{}, fmt.Errorf("hyfd: %w %q (mode %q has a single built-in strategy; leave algorithm empty)",
				hyfd.ErrUnknownAlgorithm, req.Algorithm, mode)
		}
		if !algorithmKnown(req.Algorithm) {
			return hyfd.Request{}, fmt.Errorf("hyfd: %w %q (available: %v)",
				hyfd.ErrUnknownAlgorithm, req.Algorithm, hyfd.Algorithms())
		}
	}
	if req.TopK < 0 {
		return hyfd.Request{}, fmt.Errorf("%w: top_k must be >= 0 (got %d)", ErrBadRequest, req.TopK)
	}
	if req.MinScore < 0 {
		return hyfd.Request{}, fmt.Errorf("%w: min_score must be >= 0 (got %g)", ErrBadRequest, req.MinScore)
	}
	return hyfd.Request{
		Dataset:   ds,
		Algorithm: req.Algorithm,
		Mode:      mode,
		MaxError:  req.MaxError,
		TopK:      req.TopK,
		MinScore:  req.MinScore,
		Options: hyfd.Options{
			EfficiencyThreshold: req.Threshold,
			Threads:             req.Threads,
			MaxLhsSize:          req.MaxLhs,
			MemoryBudgetBytes:   req.MemoryBudgetMB << 20,
		},
	}, nil
}

// algorithmKnown reports whether the name is a registered algorithm.
func algorithmKnown(name string) bool {
	for _, a := range hyfd.Algorithms() {
		if a == name {
			return true
		}
	}
	return false
}

// jobCanceled reports whether the error is a cancellation rather than a
// deadline or a genuine failure.
func jobCanceled(err error) bool {
	return errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}
