package harness

import (
	"bytes"
	"context"
	"runtime/metrics"
	"strings"
	"testing"

	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

func TestExecuteInProcessHyFD(t *testing.T) {
	res := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "ncvoter", Rows: 300})
	if res.Err != "" {
		t.Fatalf("err: %s", res.Err)
	}
	if res.FDs <= 0 || res.Seconds < 0 || res.PeakHeap == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Switches < 0 {
		t.Fatalf("HyFD run must report switches: %+v", res)
	}
}

// TestExecuteInProcessBaselineMatchesHyFD checks baselines by cover: a
// baseline's cover digest must equal HyFD's on the same input. The flight
// analog at 70 columns is wider than one 64-bit attribute word.
func TestExecuteInProcessBaselineMatchesHyFD(t *testing.T) {
	for _, c := range []struct {
		alg  string
		spec Spec
	}{
		{"Tane", Spec{Dataset: "iris", Rows: 150}},
		{"Fdep", Spec{Dataset: "iris", Rows: 150}},
		{"Fdep", Spec{Dataset: "flight", Rows: 100, Cols: 70}},
	} {
		c.spec.Digest = true
		hy := c.spec
		hy.Algorithm = HyFDName
		want := ExecuteInProcess(context.Background(), hy)
		if want.Err != "" {
			t.Fatalf("HyFD on %s: %s", c.spec.Dataset, want.Err)
		}
		base := c.spec
		base.Algorithm = c.alg
		got := ExecuteInProcess(context.Background(), base)
		if got.Err != "" {
			t.Fatalf("%s on %s: %s", c.alg, c.spec.Dataset, got.Err)
		}
		if got.CoverDigest == "" || got.CoverDigest != want.CoverDigest {
			t.Fatalf("%s on %s: %d FDs digest %q, HyFD %d FDs digest %q",
				c.alg, c.spec.Dataset, got.FDs, got.CoverDigest, want.FDs, want.CoverDigest)
		}
	}
}

func TestExecuteInProcessErrors(t *testing.T) {
	if res := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "nope"}); res.Err == "" {
		t.Fatal("unknown dataset accepted")
	}
	if res := ExecuteInProcess(context.Background(), Spec{Algorithm: "NoAlg", Dataset: "iris"}); res.Err == "" {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestMaterializeCapsRowsAndCols(t *testing.T) {
	rel, err := Materialize(Spec{Dataset: "uniprot", Rows: 200, Cols: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() > 200 || rel.NumCols() != 10 {
		t.Fatalf("dims %dx%d", rel.NumRows(), rel.NumCols())
	}
	if rel.Name != "uniprot" {
		t.Fatalf("name %q", rel.Name)
	}
}

// TestIncrementalMeasurement runs the incremental path in-process and pins
// its exactness contract: the maintained cover's digest equals the cold
// run's over the same final relation.
func TestIncrementalMeasurement(t *testing.T) {
	cold := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 300, Threads: 1, Digest: true})
	if cold.Err != "" {
		t.Fatalf("cold run: %s", cold.Err)
	}
	if cold.CoverDigest == "" {
		t.Fatal("Digest spec produced no cover digest")
	}
	inc := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 300, Threads: 1,
		DeltaRows: 3, Incremental: true, Digest: true})
	if inc.Err != "" {
		t.Fatalf("incremental run: %s", inc.Err)
	}
	if inc.CoverDigest != cold.CoverDigest || inc.FDs != cold.FDs {
		t.Fatalf("incremental diverges from cold: %d FDs digest %s, want %d FDs digest %s",
			inc.FDs, inc.CoverDigest, cold.FDs, cold.CoverDigest)
	}
	if inc.PrepSeconds <= 0 {
		t.Fatal("incremental run did not report the excluded base cost")
	}
	if bad := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 300,
		Incremental: true}); bad.Err == "" {
		t.Fatal("incremental spec without delta_rows accepted")
	}
}

// TestIncrementalMeasurementMetered checks that a metered incremental spec
// reports through the metrics bridge: one maintenance run and the applied
// batch's insert rows.
func TestIncrementalMeasurementMetered(t *testing.T) {
	res := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 300, Threads: 1,
		DeltaRows: 3, Incremental: true, Metrics: true})
	if res.Err != "" {
		t.Fatalf("incremental run: %s", res.Err)
	}
	if res.Metrics == nil {
		t.Fatal("metered incremental run carries no metrics snapshot")
	}
	if runs, ok := res.Metrics.Counter("hyfd_incremental_runs_total"); !ok || runs != 1 {
		t.Fatalf("hyfd_incremental_runs_total = %d (present %v), want 1", runs, ok)
	}
	if rows, ok := res.Metrics.Counter("hyfd_incremental_delta_rows_total", "kind", "insert"); !ok || rows != 3 {
		t.Fatalf("hyfd_incremental_delta_rows_total{kind=insert} = %d (present %v), want 3", rows, ok)
	}
}

func TestExperimentsDefinitions(t *testing.T) {
	opts := DefaultOptions()
	exps := Experiments(opts)
	if len(exps) != 8 {
		t.Fatalf("%d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if len(e.Jobs) == 0 || e.Render == nil || e.Title == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
		ids[e.ID] = true
	}
	for _, id := range []string{"fig6", "fig7", "table1", "table2", "table3", "fig8", "ranked", "incremental"} {
		if !ids[id] {
			t.Fatalf("experiment %q missing", id)
		}
	}
	if _, err := ByID("fig6", opts); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope", opts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Table 1 covers all 17 datasets × 8 algorithms.
	t1, _ := ByID("table1", opts)
	if len(t1.Jobs) != 17*8 {
		t.Fatalf("table1 jobs = %d", len(t1.Jobs))
	}
}

func TestRenderers(t *testing.T) {
	opts := DefaultOptions()
	for _, e := range Experiments(opts) {
		// Fabricate one result per job (no real runs) and render.
		var results []Result
		for i, j := range e.Jobs {
			r := Result{Spec: j, Seconds: float64(i) * 0.1, FDs: i, Switches: 3}
			switch i % 5 {
			case 3:
				r.TimedOut = true
			case 4:
				r.Err = "boom"
			}
			results = append(results, r)
		}
		var buf bytes.Buffer
		e.Render(&buf, results)
		out := buf.String()
		if len(out) == 0 {
			t.Fatalf("%s rendered nothing", e.ID)
		}
		if !strings.Contains(out, "TL") && strings.Contains(e.ID, "table1") {
			t.Fatalf("%s output lacks TL marker:\n%s", e.ID, out)
		}
	}
}

func TestMeasureOnCustomRelation(t *testing.T) {
	rel := relation.New("tiny", []string{"A", "B"})
	rel.AppendRow([]string{"1", "1"})
	rel.AppendRow([]string{"1", "1"})
	res := Measure(context.Background(), Spec{Algorithm: "Fdep", Dataset: "tiny"}, rel)
	if res.Err != "" || res.FDs != 2 {
		t.Fatalf("res = %+v", res)
	}
	// Sanity: matches the reference on the same relation.
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	if res.FDs != want.Size() {
		t.Fatalf("FDs = %d, want %d", res.FDs, want.Size())
	}
}

func TestMaterializeScalesPastNaturalSize(t *testing.T) {
	// Fig 6 sweeps uniprot past its catalog size of 1000 rows.
	rel, err := Materialize(Spec{Dataset: "uniprot", Rows: 2500, Cols: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2500 {
		t.Fatalf("rows = %d, want 2500", rel.NumRows())
	}
}

// TestMeasureDoesNotStopTheWorld checks that peak-heap sampling leaves the
// timed run alone: across one Measure of a run that takes at least 50 ms,
// with the heap sampled every 2 ms, the runtime records at most one
// stop-the-world pause outside garbage collection.
func TestMeasureDoesNotStopTheWorld(t *testing.T) {
	spec := Spec{Algorithm: HyFDName, Dataset: "ncvoter", Rows: 20000}
	rel, err := Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := nonGCPauses()
	res := Measure(context.Background(), spec, rel)
	pauses := nonGCPauses() - before
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.Seconds < 0.05 {
		t.Fatalf("run took %.3fs; the check needs at least 50 ms of sampling", res.Seconds)
	}
	if res.PeakHeap == 0 {
		t.Fatal("no peak heap sampled")
	}
	if pauses > 1 {
		t.Fatalf("%d non-GC stop-the-world pauses during a %.3fs Measure, want at most 1", pauses, res.Seconds)
	}
}

// nonGCPauses counts the stop-the-world pauses the runtime has recorded
// outside garbage collection.
func nonGCPauses() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}
