package tracing

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"hyfd/internal/trace"
)

// TestNilSafety: every method of a nil Recorder (and of derived nil values)
// must be a no-op — the untraced serving path calls them unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	id := r.Start("x", 0, String("k", "v"))
	if id != 0 {
		t.Fatalf("nil Start returned %d, want 0", id)
	}
	r.End(id)
	r.Completed("y", 0, time.Second)
	r.Instant("z", 0)
	if r.Snapshot() != nil {
		t.Fatal("nil Snapshot must be nil")
	}
	if r.Dropped() != 0 {
		t.Fatal("nil Dropped must be 0")
	}
	if r.Observer(0) != nil {
		t.Fatal("nil Recorder must bridge to a nil Observer")
	}

	var s *SlowJobs
	s.Note(SlowJob{ID: "j-1"})
	if s.Snapshot() != nil {
		t.Fatal("nil SlowJobs snapshot must be nil")
	}

	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("nil trace must render an empty traceEvents array: %s (err %v)", buf.Bytes(), err)
	}
}

// TestSpanTree: parent links, attributes, and start-order sorting of a
// snapshot, with open spans marked as such.
func TestSpanTree(t *testing.T) {
	r := New(0)
	root := r.Start("job", 0, String("dataset", "t"))
	child := r.Start("run", root)
	r.Completed("engine", child, time.Millisecond, Int("round", 1))
	r.End(child, Int64("n", 42))

	snap := r.Snapshot()
	if snap.Capacity != DefaultCapacity {
		t.Fatalf("capacity %d, want %d", snap.Capacity, DefaultCapacity)
	}
	byName := map[string]SpanView{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	if len(byName) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(byName), snap.Spans)
	}
	if byName["run"].Parent != byName["job"].ID {
		t.Fatal("run span must be parented under job")
	}
	if byName["engine"].Parent != byName["run"].ID {
		t.Fatal("engine span must be parented under run")
	}
	if !byName["job"].Open {
		t.Fatal("job span is still open")
	}
	if byName["run"].Open || byName["engine"].Open {
		t.Fatal("closed spans must not be open")
	}
	if byName["job"].Attrs["dataset"] != "t" || byName["run"].Attrs["n"] != "42" ||
		byName["engine"].Attrs["round"] != "1" {
		t.Fatalf("attributes lost: %+v", byName)
	}
	for i := 1; i < len(snap.Spans); i++ {
		a, b := snap.Spans[i-1], snap.Spans[i]
		if a.StartNs > b.StartNs || (a.StartNs == b.StartNs && a.ID > b.ID) {
			t.Fatalf("snapshot not sorted at %d: %+v", i, snap.Spans)
		}
	}

	// Ending twice (or ending an unknown id) is a no-op.
	r.End(child)
	r.End(SpanID(999))
	if n := len(r.Snapshot().Spans); n != 3 {
		t.Fatalf("idempotent End grew the trace to %d spans", n)
	}
}

// TestRingBound: the completed-span ring sheds oldest-first and counts what
// it dropped.
func TestRingBound(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Instant("s", 0, Int("i", i))
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(snap.Spans))
	}
	if snap.Dropped != 6 || r.Dropped() != 6 {
		t.Fatalf("dropped = %d/%d, want 6", snap.Dropped, r.Dropped())
	}
	// The survivors are the newest four.
	for _, sp := range snap.Spans {
		if sp.Attrs["i"] < "6" {
			t.Fatalf("old span survived the ring: %+v", sp)
		}
	}
}

// TestCompletedPredatesEpoch: a Completed span whose duration exceeds the
// recorder's age keeps its full duration and starts at a negative offset —
// the work began before the recorder existed.
func TestCompletedPredatesEpoch(t *testing.T) {
	r := New(0)
	r.Completed("warm", 0, time.Hour)
	sp := r.Snapshot().Spans[0]
	if sp.StartNs >= 0 {
		t.Fatalf("start %d, want negative (work predates the epoch)", sp.StartNs)
	}
	if sp.DurNs != time.Hour.Nanoseconds() {
		t.Fatalf("duration %d, want the full hour", sp.DurNs)
	}
}

// TestConcurrentRecorder: concurrent span traffic and snapshots must be
// race-free (run under -race).
func TestConcurrentRecorder(t *testing.T) {
	r := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := r.Start("s", 0)
				r.Instant("i", id)
				r.End(id)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if n := len(r.Snapshot().Spans); n == 0 {
		t.Fatal("no spans recorded")
	}
}

// TestWriteChrome: the Chrome trace-event rendering carries "X" complete
// events with microsecond units and thread-scoped "i" instants.
func TestWriteChrome(t *testing.T) {
	r := New(0)
	r.Completed("stage", 0, 2*time.Millisecond, String("k", "v"))
	r.Instant("marker", 0)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			S    string            `json:"s"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 2 {
		t.Fatalf("document shape: %+v", doc)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 1 || ev.Tid != 1 || ev.Cat != "hyfdd" {
			t.Fatalf("event ids/category: %+v", ev)
		}
		switch ev.Name {
		case "stage":
			if ev.Ph != "X" || ev.Dur < 1900 || ev.Dur > 2100 || ev.Args["k"] != "v" {
				t.Fatalf("complete event: %+v", ev)
			}
		case "marker":
			if ev.Ph != "i" || ev.S != "t" {
				t.Fatalf("instant event: %+v", ev)
			}
		default:
			t.Fatalf("unexpected event %q", ev.Name)
		}
	}
}

// TestBridge: every engine event type lands as the right span with the
// right attributes, parented under the given span.
func TestBridge(t *testing.T) {
	r := New(0)
	parent := r.Start("run", 0)
	obs := r.Observer(parent)
	events := []trace.Event{
		trace.IngestDone{Rows: 10, Cols: 3, Threads: 2, Duration: time.Millisecond},
		trace.PLIBuilt{Attr: 1, Clusters: 4, Duration: time.Microsecond},
		trace.PreprocessingDone{Rows: 10, Cols: 3, Threads: 2, Warm: true, Duration: time.Microsecond},
		trace.SamplingRound{Round: 1, NewObservations: 5, Comparisons: 100, Windows: 7, Threshold: 0.01,
			Duration: time.Millisecond, Induction: 250 * time.Microsecond},
		trace.PhaseSwitch{From: trace.PhaseSampling, To: trace.PhaseValidation, Switches: 0},
		trace.ValidationLevel{Level: 2, Candidates: 9, Valid: 8, Invalid: 1, Suggestions: 3, Validations: 4, Refinements: 5, Fallbacks: 1, Duration: time.Millisecond},
		trace.GuardianPrune{MaxLhs: 3, Interventions: 1, FootprintBytes: 4096},
		trace.Done{FDs: 42, Duration: time.Millisecond},
		trace.DeltaApplied{Version: 2, Inserts: 3, Deletes: 1, Rows: 12, SharedAttrs: 0, Duration: time.Microsecond},
		trace.IncrementalDone{BaseFDs: 42, Breakable: 2, FDs: 43, Checks: 0, Specialized: 1, Duration: time.Millisecond},
	}
	for _, e := range events {
		obs.Observe(e)
	}
	want := map[string]map[string]string{
		SpanIngest:          {"rows": "10", "cols": "3", "threads": "2"},
		SpanPreparePLI:      {"attr": "1", "clusters": "4"},
		SpanPrepare:         {"rows": "10", "warm": "true"},
		SpanSamplingRound:   {"round": "1", "new_observations": "5", "comparisons": "100", "windows": "7", "threshold": "0.01", "induction_ns": "250000"},
		SpanPhaseSwitch:     {"from": "sampling", "to": "validation"},
		SpanValidationLevel: {"level": "2", "candidates": "9", "valid": "8", "invalid": "1", "suggestions": "3", "validations": "4", "refinements": "5", "fallbacks": "1"},
		SpanGuardianPrune:   {"max_lhs": "3", "interventions": "1", "footprint_bytes": "4096"},
		SpanEngineDone:      {"fds": "42"},
		SpanDeltaApply:      {"version": "2", "inserts": "3", "deletes": "1", "rows": "12"},
		SpanIncrDone:        {"base_fds": "42", "breakable": "2", "fds": "43", "checks": "0", "specialized": "1"},
	}
	snap := r.Snapshot()
	got := map[string]SpanView{}
	for _, sp := range snap.Spans {
		got[sp.Name] = sp
	}
	for name, attrs := range want {
		sp, ok := got[name]
		if !ok {
			t.Fatalf("event %s produced no span; have %+v", name, snap.Spans)
		}
		if sp.Parent != int64(parent) {
			t.Fatalf("%s parented under %d, want %d", name, sp.Parent, parent)
		}
		for k, v := range attrs {
			if sp.Attrs[k] != v {
				t.Fatalf("%s attr %s = %q, want %q", name, k, sp.Attrs[k], v)
			}
		}
	}
}

// TestSlowJobs: the ring keeps the K slowest, ordered slowest first, with
// ties resolved toward the newer job.
func TestSlowJobs(t *testing.T) {
	s := NewSlowJobs(3)
	for i, total := range []float64{10, 50, 20, 40, 30} {
		s.Note(SlowJob{ID: "j", TotalMs: total, FinishedUnixMs: int64(i)})
	}
	got := s.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	if got[0].TotalMs != 50 || got[1].TotalMs != 40 || got[2].TotalMs != 30 {
		t.Fatalf("ring order: %+v", got)
	}

	ties := NewSlowJobs(2)
	ties.Note(SlowJob{ID: "old", TotalMs: 5, FinishedUnixMs: 1})
	ties.Note(SlowJob{ID: "new", TotalMs: 5, FinishedUnixMs: 2})
	if got := ties.Snapshot(); got[0].ID != "new" {
		t.Fatalf("tie must prefer the newer job: %+v", got)
	}

	if NewSlowJobs(0).k != DefaultSlowJobs {
		t.Fatal("k <= 0 must select the default ring size")
	}
}
