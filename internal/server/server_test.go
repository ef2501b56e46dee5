package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hyfd"
	"hyfd/internal/datasets"
	"hyfd/internal/metrics"
)

// newTestServer stands up a started server behind an httptest listener and
// tears both down at test end (jobs still running at cleanup are canceled
// by the short grace deadline).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = hyfd.NewMetricsRegistry()
	}
	srv := New(context.Background(), cfg)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// do issues one JSON request and returns the status code and decoded body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// registerCSV registers an inline-CSV dataset and asserts success.
func registerCSV(t *testing.T, ts *httptest.Server, name, csv string) {
	t.Helper()
	body, _ := json.Marshal(DatasetRequest{Name: name, CSV: csv})
	code, data := do(t, "POST", ts.URL+"/v1/datasets", string(body))
	if code != http.StatusCreated {
		t.Fatalf("registering %q: status %d: %s", name, code, data)
	}
}

// submitJob submits a job and returns its accepted view.
func submitJob(t *testing.T, ts *httptest.Server, req JobRequest) JobView {
	t.Helper()
	body, _ := json.Marshal(req)
	code, data := do(t, "POST", ts.URL+"/v1/jobs", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || view.Status == "" {
		t.Fatalf("accepted view incomplete: %s", data)
	}
	return view
}

// getJob fetches one job view.
func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	code, data := do(t, "GET", ts.URL+"/v1/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET job %s: status %d: %s", id, code, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	return view
}

// waitTerminal polls a job until it reaches a terminal status.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view := getJob(t, ts, id)
		switch view.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return view
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal status", id)
	return JobView{}
}

// waitStatus polls until the job reports the wanted status.
func waitStatus(t *testing.T, ts *httptest.Server, id string, want JobStatus) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view := getJob(t, ts, id)
		if view.Status == want {
			return view
		}
		switch view.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			t.Fatalf("job %s terminal at %s while waiting for %s", id, view.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

const tinyCSV = "A,B,C\n1,x,p\n2,x,q\n3,y,p\n4,y,q\n"

// slowCSV builds a relation on which an FD_Mine job runs for roughly a
// second — long enough that the tests below can observe the running state
// and cancel or time it out well before it completes on its own.
func slowCSV() string {
	r := rand.New(rand.NewSource(11))
	var b strings.Builder
	cols := 12
	for j := 0; j < cols; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "c%d", j)
	}
	b.WriteByte('\n')
	for i := 0; i < 2000; i++ {
		for j := 0; j < cols; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(r.Intn(4)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDatasetLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	body, _ := json.Marshal(DatasetRequest{Name: "t", CSV: tinyCSV})
	code, data := do(t, "POST", ts.URL+"/v1/datasets", string(body))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, data)
	}
	var info DatasetInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "t" || info.Rows != 4 || info.Cols != 3 || info.PrepareNs <= 0 {
		t.Fatalf("info: %+v", info)
	}

	// Duplicate name → 409.
	if code, _ := do(t, "POST", ts.URL+"/v1/datasets", string(body)); code != http.StatusConflict {
		t.Fatalf("duplicate: %d, want 409", code)
	}

	// List contains it.
	code, data = do(t, "GET", ts.URL+"/v1/datasets", "")
	if code != http.StatusOK || !strings.Contains(string(data), `"t"`) {
		t.Fatalf("list: %d %s", code, data)
	}

	// Get one.
	if code, _ := do(t, "GET", ts.URL+"/v1/datasets/t", ""); code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}

	// Delete, then the name is gone and reusable.
	if code, _ := do(t, "DELETE", ts.URL+"/v1/datasets/t", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/datasets/t", ""); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", code)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/datasets/t", ""); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/datasets", string(body)); code != http.StatusCreated {
		t.Fatalf("re-register after delete: %d", code)
	}
}

func TestDatasetValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"malformed JSON":  `{"name": "x", `,
		"unknown field":   `{"name":"x","csv":"a\n1\n","bogus":true}`,
		"trailing data":   `{"name":"x","csv":"a\n1\n"} {"again":1}`,
		"no source":       `{"name":"x"}`,
		"two sources":     `{"name":"x","csv":"a\n1\n","path":"/tmp/x.csv"}`,
		"empty name":      `{"csv":"a\n1\n"}`,
		"multi-char sep":  `{"name":"x","csv":"a\n1\n","sep":"ab"}`,
		"unknown catalog": `{"name":"x","generate":{"dataset":"no-such-dataset"}}`,
	} {
		code, data := do(t, "POST", ts.URL+"/v1/datasets", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, data)
		}
	}
}

// repeatReader yields its byte forever.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestOversizedBody413: a registration whose inline CSV runs past
// maxBodyBytes answers 413 with the JSON error envelope, and the server
// still registers a small dataset afterwards. The body is generated as it
// is sent, never held in memory.
func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := io.MultiReader(
		strings.NewReader(`{"name":"big","csv":"`),
		io.LimitReader(repeatReader('a'), maxBodyBytes),
		strings.NewReader(`"}`),
	)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("status %d, body not the JSON envelope: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Status != resp.StatusCode || !strings.Contains(env.Error, ErrTooLarge.Error()) {
		t.Fatalf("status %d, envelope %+v; want 413 and %q", resp.StatusCode, env, ErrTooLarge)
	}
	registerCSV(t, ts, "small", "a,b\n1,2\n1,3\n")
}

func TestJobAllModes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	registerCSV(t, ts, "t", tinyCSV)

	t.Run("fd", func(t *testing.T) {
		view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t", Mode: "fd"}).ID)
		if view.Status != StatusDone || view.Result == nil || len(view.Result.FDs) == 0 {
			t.Fatalf("fd job: %+v", view)
		}
		if view.Result.Stats == nil || !view.Result.Stats.Warm {
			t.Fatalf("fd job must run warm: %+v", view.Result.Stats)
		}
		if view.Result.Count != len(view.Result.FDs) {
			t.Fatalf("count %d != %d fds", view.Result.Count, len(view.Result.FDs))
		}
	})
	t.Run("fd baseline", func(t *testing.T) {
		view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t", Mode: "fd", Algorithm: "Tane"}).ID)
		if view.Status != StatusDone || view.Result == nil || len(view.Result.FDs) == 0 {
			t.Fatalf("baseline job: %+v", view)
		}
	})
	t.Run("afd", func(t *testing.T) {
		view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t", Mode: "afd", MaxError: 0.5}).ID)
		if view.Status != StatusDone || view.Result == nil || len(view.Result.AFDs) == 0 {
			t.Fatalf("afd job: %+v", view)
		}
	})
	t.Run("ucc", func(t *testing.T) {
		view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t", Mode: "ucc"}).ID)
		if view.Status != StatusDone || view.Result == nil || len(view.Result.UCCs) == 0 {
			t.Fatalf("ucc job: %+v", view)
		}
	})
	t.Run("ranked", func(t *testing.T) {
		view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t", Mode: "ranked"}).ID)
		if view.Status != StatusDone || view.Result == nil || len(view.Result.Ranked) == 0 {
			t.Fatalf("ranked job: %+v", view)
		}
		res := view.Result
		if res.Partial {
			t.Fatal("finished ranked job must not report a partial result")
		}
		if res.Count != len(res.Ranked) {
			t.Fatalf("count %d != %d ranked", res.Count, len(res.Ranked))
		}
		for i, it := range res.Ranked {
			if it.Rank != i+1 {
				t.Fatalf("rank[%d] = %d, want %d", i, it.Rank, i+1)
			}
			if i > 0 && it.Score > res.Ranked[i-1].Score {
				t.Fatalf("scores not monotone at %d: %g after %g", i, it.Score, res.Ranked[i-1].Score)
			}
			if it.FD == "" {
				t.Fatalf("ranked[%d] has empty FD rendering", i)
			}
		}

		// top_k returns exactly the prefix of the full ranking.
		capped := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t", Mode: "ranked", TopK: 2}).ID)
		if capped.Status != StatusDone || capped.Result == nil || len(capped.Result.Ranked) != 2 {
			t.Fatalf("top-2 job: %+v", capped)
		}
		for i, it := range capped.Result.Ranked {
			if it != res.Ranked[i] {
				t.Fatalf("top-2 not a prefix of the full ranking at %d: %+v vs %+v", i, it, res.Ranked[i])
			}
		}
	})
}

func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerCSV(t, ts, "t", tinyCSV)
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed JSON":    {`{"dataset": `, http.StatusBadRequest},
		"unknown field":     {`{"dataset":"t","nope":1}`, http.StatusBadRequest},
		"unknown dataset":   {`{"dataset":"ghost"}`, http.StatusNotFound},
		"unknown algorithm": {`{"dataset":"t","algorithm":"NoSuchAlg"}`, http.StatusBadRequest},
		"unknown mode":      {`{"dataset":"t","mode":"xfd"}`, http.StatusBadRequest},
		"algorithm in afd":  {`{"dataset":"t","mode":"afd","algorithm":"Tane"}`, http.StatusBadRequest},
		"algorithm ranked":  {`{"dataset":"t","mode":"ranked","algorithm":"Tane"}`, http.StatusBadRequest},
		"negative top_k":    {`{"dataset":"t","mode":"ranked","top_k":-1}`, http.StatusBadRequest},
		"negative min":      {`{"dataset":"t","mode":"ranked","min_score":-0.5}`, http.StatusBadRequest},
	} {
		code, data := do(t, "POST", ts.URL+"/v1/jobs", tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", name, code, data, tc.want)
		}
	}
	// Unknown job id on the read and cancel paths.
	if code, _ := do(t, "GET", ts.URL+"/v1/jobs/j-999", ""); code != http.StatusNotFound {
		t.Errorf("unknown job get: %d", code)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/jobs/j-999", ""); code != http.StatusNotFound {
		t.Errorf("unknown job cancel: %d", code)
	}
}

// TestJobCancelMidRun: canceling a running job aborts the engine through the
// context path and lands the job in canceled with the 499 error status.
func TestJobCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerCSV(t, ts, "slow", slowCSV())

	id := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine"}).ID
	waitStatus(t, ts, id, StatusRunning)
	start := time.Now()
	code, data := do(t, "DELETE", ts.URL+"/v1/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, data)
	}
	view := waitTerminal(t, ts, id)
	if view.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", view.Status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s to take effect", elapsed)
	}
	if view.ErrorStatus != StatusClientClosedRequest {
		t.Fatalf("error status %d, want %d", view.ErrorStatus, StatusClientClosedRequest)
	}
	// Canceling a finished job stays canceled (idempotent no-op).
	if code, _ := do(t, "DELETE", ts.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
		t.Fatalf("re-cancel: %d", code)
	}
}

// TestJobCancelQueued: a job canceled while still waiting in the queue never
// runs — the worker skips it on dequeue.
func TestJobCancelQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	registerCSV(t, ts, "slow", slowCSV())
	registerCSV(t, ts, "t", tinyCSV)

	blocker := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine"}).ID
	waitStatus(t, ts, blocker, StatusRunning)
	queued := submitJob(t, ts, JobRequest{Dataset: "t"}).ID
	if code, _ := do(t, "DELETE", ts.URL+"/v1/jobs/"+queued, ""); code != http.StatusOK {
		t.Fatalf("cancel queued: %d", code)
	}
	view := waitTerminal(t, ts, queued)
	if view.Status != StatusCanceled || view.RunMs != 0 {
		t.Fatalf("queued job must cancel without running: %+v", view)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/jobs/"+blocker, ""); code != http.StatusOK {
		t.Fatalf("cancel blocker: %d", code)
	}
	waitTerminal(t, ts, blocker)
}

// TestQueueFull429: admission control must reject with 429 + Retry-After the
// moment the bounded queue is full, without blocking the handler.
func TestQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	registerCSV(t, ts, "slow", slowCSV())
	registerCSV(t, ts, "t", tinyCSV)

	running := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine"}).ID
	waitStatus(t, ts, running, StatusRunning)
	queued := submitJob(t, ts, JobRequest{Dataset: "t"}).ID

	body, _ := json.Marshal(JobRequest{Dataset: "t"})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", resp.Header.Get("Retry-After"))
	}
	var envelope errorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Status != 429 {
		t.Fatalf("429 envelope: %+v err=%v", envelope, err)
	}

	// Draining the blocker frees capacity again.
	if code, _ := do(t, "DELETE", ts.URL+"/v1/jobs/"+running, ""); code != http.StatusOK {
		t.Fatal("cancel blocker")
	}
	waitTerminal(t, ts, running)
	waitTerminal(t, ts, queued)
	view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t"}).ID)
	if view.Status != StatusDone {
		t.Fatalf("post-drain job: %s", view.Status)
	}
}

// TestJobDeadline: a job deadline lands the job in failed with the 504
// error status once it expires mid-run. Expiry is driven through the fake
// clock — no real time passes waiting for the deadline.
func TestJobDeadline(t *testing.T) {
	t.Run("deadline_ms", func(t *testing.T) {
		fc := newFakeClock()
		_, ts := newTestServer(t, Config{Workers: 1, clock: fc})
		registerCSV(t, ts, "slow", slowCSV())
		id := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine", DeadlineMs: 60_000}).ID
		waitStatus(t, ts, id, StatusRunning)
		fc.Advance(61 * time.Second)
		view := waitTerminal(t, ts, id)
		if view.Status != StatusFailed {
			t.Fatalf("status %s, want failed", view.Status)
		}
		if view.ErrorStatus != http.StatusGatewayTimeout {
			t.Fatalf("error status %d, want 504", view.ErrorStatus)
		}
	})
	t.Run("default deadline", func(t *testing.T) {
		fc := newFakeClock()
		_, ts := newTestServer(t, Config{Workers: 1, DefaultDeadline: time.Minute, clock: fc})
		registerCSV(t, ts, "slow", slowCSV())
		id := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine"}).ID
		waitStatus(t, ts, id, StatusRunning)
		fc.Advance(2 * time.Minute)
		view := waitTerminal(t, ts, id)
		if view.Status != StatusFailed || view.ErrorStatus != http.StatusGatewayTimeout {
			t.Fatalf("default deadline: status %s error %d, want failed/504", view.Status, view.ErrorStatus)
		}
	})
	t.Run("finishing stops the timer", func(t *testing.T) {
		fc := newFakeClock()
		_, ts := newTestServer(t, Config{Workers: 1, clock: fc})
		registerCSV(t, ts, "t", tinyCSV)
		view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t", DeadlineMs: 60_000}).ID)
		if view.Status != StatusDone {
			t.Fatalf("status %s, want done", view.Status)
		}
		// Advancing past the deadline after completion must not disturb the
		// terminal state.
		fc.Advance(61 * time.Second)
		if view := getJob(t, ts, view.ID); view.Status != StatusDone {
			t.Fatalf("post-completion expiry flipped status to %s", view.Status)
		}
	})
}

// rankedStreamCSV builds a relation whose ranked run streams: the constant
// column's {} -> konst stabilizes at rank 1 after the first validation level
// (every other candidate scores at most 1/3), while the fourteen random
// domain-3 columns keep the engine validating for hundreds of milliseconds —
// a wide window for mid-run polls.
func rankedStreamCSV() string {
	r := rand.New(rand.NewSource(7))
	var b strings.Builder
	cols := 14
	b.WriteString("konst")
	for j := 0; j < cols; j++ {
		fmt.Fprintf(&b, ",c%d", j)
	}
	b.WriteByte('\n')
	for i := 0; i < 4000; i++ {
		b.WriteString("k")
		for j := 0; j < cols; j++ {
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(r.Intn(3)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestJobRankedStreamAndCancel: a running ranked job exposes its stabilized
// ranks through GET as a partial result (the any-time stream), and canceling
// the job after results arrived keeps them retrievable with 200.
func TestJobRankedStreamAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerCSV(t, ts, "stream", rankedStreamCSV())
	id := submitJob(t, ts, JobRequest{Dataset: "stream", Mode: "ranked", Threads: 1}).ID

	// Poll until the any-time stream surfaces at least one stabilized rank.
	var partial JobView
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no partial ranked result surfaced mid-run")
		}
		v := getJob(t, ts, id)
		switch v.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			t.Fatalf("job terminal (%s) before a mid-run poll saw results: %s", v.Status, v.Error)
		}
		if v.Result != nil && len(v.Result.Ranked) > 0 {
			partial = v
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !partial.Result.Partial {
		t.Fatalf("mid-run ranked result must be marked partial: %+v", partial.Result)
	}
	for i, it := range partial.Result.Ranked {
		if it.Rank != i+1 {
			t.Fatalf("partial rank[%d] = %d, want %d", i, it.Rank, i+1)
		}
		if i > 0 && it.Score > partial.Result.Ranked[i-1].Score {
			t.Fatalf("partial scores not monotone at %d", i)
		}
	}

	// Early-cancel: the stabilized prefix survives the cancel, and GET keeps
	// answering 200 — ranks already emitted are final.
	if code, data := do(t, "DELETE", ts.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, data)
	}
	view := waitTerminal(t, ts, id)
	if view.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", view.Status)
	}
	code, data := do(t, "GET", ts.URL+"/v1/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET after cancel: %d", code)
	}
	var after JobView
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if after.Result == nil || !after.Result.Partial || len(after.Result.Ranked) < len(partial.Result.Ranked) {
		t.Fatalf("canceled ranked job must keep its partial results: %+v", after.Result)
	}
	for i, it := range partial.Result.Ranked {
		if after.Result.Ranked[i] != it {
			t.Fatalf("emitted rank %d changed after cancel: %+v vs %+v", i+1, after.Result.Ranked[i], it)
		}
	}
	if after.ErrorStatus != StatusClientClosedRequest {
		t.Fatalf("error status %d, want %d", after.ErrorStatus, StatusClientClosedRequest)
	}
}

// TestConcurrentWarmJobs: many concurrent jobs over one warm Dataset, at
// engine thread counts 1 and 4, must all succeed with identical results —
// the multi-tenant read-only-share contract, race-clean under -race.
func TestConcurrentWarmJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	registerCSV(t, ts, "t", tinyCSV)

	const perThreadCount = 3
	type outcome struct {
		fds []string
		err error
	}
	var wg sync.WaitGroup
	outcomes := make([]outcome, 2*perThreadCount)
	for i := 0; i < len(outcomes); i++ {
		threads := 1
		if i >= perThreadCount {
			threads = 4
		}
		wg.Add(1)
		go func(i, threads int) {
			defer wg.Done()
			body, _ := json.Marshal(JobRequest{Dataset: "t", Threads: threads})
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				outcomes[i].err = err
				return
			}
			var view JobView
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if err != nil {
				outcomes[i].err = err
				return
			}
			for {
				resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
				if err != nil {
					outcomes[i].err = err
					return
				}
				var cur JobView
				err = json.NewDecoder(resp.Body).Decode(&cur)
				resp.Body.Close()
				if err != nil {
					outcomes[i].err = err
					return
				}
				if cur.Status == StatusDone {
					outcomes[i].fds = cur.Result.FDs
					return
				}
				if cur.Status == StatusFailed || cur.Status == StatusCanceled {
					outcomes[i].err = fmt.Errorf("job %s: %s", cur.ID, cur.Error)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i, threads)
	}
	wg.Wait()
	want := strings.Join(outcomes[0].fds, "\n")
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("job %d: %v", i, o.err)
		}
		if got := strings.Join(o.fds, "\n"); got != want {
			t.Fatalf("job %d result diverges:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestWarmMatchesCold: the acceptance bar — a job served warm through the
// HTTP path returns byte-identical FD renderings to a cold in-process run on
// the same input at the same thread count.
func TestWarmMatchesCold(t *testing.T) {
	d, err := datasets.ByName("bridges")
	if err != nil {
		t.Fatal(err)
	}
	rel := d.Generate(1.0)

	_, ts := newTestServer(t, Config{Workers: 2})
	body, _ := json.Marshal(DatasetRequest{Name: "bridges", Generate: &GenerateSpec{Dataset: "bridges"}})
	if code, data := do(t, "POST", ts.URL+"/v1/datasets", string(body)); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, data)
	}

	for _, threads := range []int{1, 4} {
		view := waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "bridges", Threads: threads}).ID)
		if view.Status != StatusDone {
			t.Fatalf("threads %d: %s (%s)", threads, view.Status, view.Error)
		}
		cold, err := hyfd.Run(context.Background(), hyfd.Request{
			Relation: rel,
			Options:  hyfd.Options{Threads: threads},
		})
		if err != nil {
			t.Fatal(err)
		}
		var coldLines []string
		for _, f := range cold.FDs {
			coldLines = append(coldLines, f.Format(rel))
		}
		warm := strings.Join(view.Result.FDs, "\n")
		if want := strings.Join(coldLines, "\n"); warm != want {
			t.Fatalf("threads %d: warm serving result diverges from cold run\nwarm:\n%.400s\ncold:\n%.400s", threads, warm, want)
		}
	}
}

// TestObservabilitySurfaces: the process metrics and health endpoints ride
// on the same mux as the job API.
func TestObservabilitySurfaces(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	registerCSV(t, ts, "t", tinyCSV)
	waitTerminal(t, ts, submitJob(t, ts, JobRequest{Dataset: "t"}).ID)

	code, data := do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d %s", code, data)
	}
	code, data = do(t, "GET", ts.URL+"/readyz", "")
	if code != http.StatusOK || !strings.Contains(string(data), `"ready"`) {
		t.Fatalf("readyz: %d %s", code, data)
	}
	code, data = do(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK || !strings.Contains(string(data), "hyfdd_up 1") {
		t.Fatalf("metrics: %d\n%.400s", code, data)
	}
	if !strings.Contains(string(data), `hyfdd_jobs_total{status="done"} 1`) {
		t.Fatalf("metrics missing job counter:\n%.1200s", data)
	}
	code, data = do(t, "GET", ts.URL+"/metrics.json", "")
	if code != http.StatusOK {
		t.Fatalf("metrics.json: %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics.json not a snapshot: %v", err)
	}
	if n, ok := snap.Counter("hyfdd_jobs_total", "status", "done"); !ok || n != 1 {
		t.Fatalf("hyfdd_jobs_total{done} = %d ok=%v", n, ok)
	}
	if code, _ := do(t, "GET", ts.URL+"/debug/pprof/cmdline", ""); code != http.StatusOK {
		t.Fatalf("pprof: %d", code)
	}

	// Shutdown flips the readiness probe and closes admission; liveness
	// stays green while in-flight work drains.
	srv.BeginShutdown()
	if code, _ := do(t, "GET", ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz during shutdown: %d, want 200 (liveness is not readiness)", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during shutdown: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/datasets", `{"name":"x","csv":"a\n1\n"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("register during shutdown: %d", code)
	}
	body, _ := json.Marshal(JobRequest{Dataset: "t"})
	if code, _ := do(t, "POST", ts.URL+"/v1/jobs", string(body)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: %d", code)
	}
}

// TestShutdownDrains: in-flight jobs finish inside the grace window; with an
// expired grace deadline, running jobs are canceled and Shutdown reports the
// deadline error.
func TestShutdownDrains(t *testing.T) {
	t.Run("clean drain", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1})
		registerCSV(t, ts, "t", tinyCSV)
		id := submitJob(t, ts, JobRequest{Dataset: "t"}).ID
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("clean drain returned %v", err)
		}
		if view := getJob(t, ts, id); view.Status != StatusDone {
			t.Fatalf("drained job status %s", view.Status)
		}
	})
	t.Run("grace deadline cancels stragglers", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1})
		registerCSV(t, ts, "slow", slowCSV())
		id := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine"}).ID
		waitStatus(t, ts, id, StatusRunning)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
			t.Fatalf("forced shutdown returned %v, want DeadlineExceeded", err)
		}
		if view := getJob(t, ts, id); view.Status != StatusCanceled {
			t.Fatalf("straggler status %s, want canceled", view.Status)
		}
	})
	t.Run("queued jobs are canceled, not drained", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
		registerCSV(t, ts, "slow", slowCSV())
		registerCSV(t, ts, "t", tinyCSV)
		blocker := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine"}).ID
		waitStatus(t, ts, blocker, StatusRunning)
		queued := submitJob(t, ts, JobRequest{Dataset: "t"}).ID
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
		view := getJob(t, ts, queued)
		if view.Status == StatusDone {
			t.Fatalf("queued job must not be drained during shutdown")
		}
	})
}

// TestJobList: jobs list in submission order with stable sequential ids.
func TestJobList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerCSV(t, ts, "t", tinyCSV)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitJob(t, ts, JobRequest{Dataset: "t"}).ID)
	}
	for _, id := range ids {
		waitTerminal(t, ts, id)
	}
	code, data := do(t, "GET", ts.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i, j := range list.Jobs {
		if j.ID != fmt.Sprintf("j-%d", i+1) {
			t.Fatalf("job %d id %s", i, j.ID)
		}
	}
}

// TestDeleteDatasetKeepsRunningJobs: deleting a registration does not
// disturb a job already running over the (immutable) Dataset.
func TestDeleteDatasetKeepsRunningJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerCSV(t, ts, "slow", slowCSV())
	id := submitJob(t, ts, JobRequest{Dataset: "slow", Algorithm: "FD_Mine"}).ID
	waitStatus(t, ts, id, StatusRunning)
	if code, _ := do(t, "DELETE", ts.URL+"/v1/datasets/slow", ""); code != http.StatusNoContent {
		t.Fatal("delete dataset")
	}
	// New jobs naming it are refused…
	body, _ := json.Marshal(JobRequest{Dataset: "slow"})
	if code, _ := do(t, "POST", ts.URL+"/v1/jobs", string(body)); code != http.StatusNotFound {
		t.Fatal("submit after delete must 404")
	}
	// …while the in-flight job runs to completion.
	view := waitTerminal(t, ts, id)
	if view.Status != StatusDone {
		t.Fatalf("in-flight job after dataset delete: %s (%s)", view.Status, view.Error)
	}
}
