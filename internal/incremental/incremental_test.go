package incremental

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyfd/internal/core"
	"hyfd/internal/dataset"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
	"hyfd/internal/trace"
)

func randomRel(rng *rand.Rand, rows, cols int) *relation.Relation {
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	rel := relation.New("rand", names)
	for r := 0; r < rows; r++ {
		row := make([]string, cols)
		for c := range row {
			if rng.Intn(7) == 0 {
				row[c] = relation.Null
			} else {
				row[c] = fmt.Sprintf("v%d", rng.Intn(3))
			}
		}
		rel.AppendRow(row)
	}
	return rel
}

func randomDelta(rng *rand.Rand, ds *dataset.Dataset) dataset.Delta {
	var delta dataset.Delta
	cols := ds.NumCols()
	for i := rng.Intn(4); i > 0; i-- {
		row := make([]string, cols)
		for c := range row {
			if rng.Intn(7) == 0 {
				row[c] = relation.Null
			} else {
				row[c] = fmt.Sprintf("v%d", rng.Intn(3))
			}
		}
		delta.Inserts = append(delta.Inserts, row)
	}
	if n := ds.NumRows(); n > 4 {
		for i := rng.Intn(3); i > 0; i-- {
			r := rng.Intn(n)
			delta.Deletes = append(delta.Deletes, append(relation.Row(nil), ds.Relation().Rows[r]...))
		}
	}
	return delta
}

// dedupeDeletes drops duplicate delete rows that would over-delete (the
// random generator may pick the same row twice).
func dedupeDeletes(delta dataset.Delta) dataset.Delta {
	seen := make(map[string]bool)
	kept := delta.Deletes[:0]
	for _, row := range delta.Deletes {
		k := fmt.Sprintf("%q", row)
		if !seen[k] {
			seen[k] = true
			kept = append(kept, row)
		}
	}
	delta.Deletes = kept
	return delta
}

// TestMaintainMatchesColdDiscovery is the exactness contract: across a chain
// of random deltas, the maintained cover is byte-identical to full cold
// discovery on each snapshot — both null semantics, threads 1 and 4.
func TestMaintainMatchesColdDiscovery(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			for _, threads := range []int{1, 4} {
				rng := rand.New(rand.NewSource(seed))
				rel := randomRel(rng, 6+rng.Intn(14), 2+rng.Intn(4))
				ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{NullSemantics: ns, Threads: threads})
				if err != nil {
					t.Fatalf("Prepare: %v", err)
				}
				base, _, err := core.DiscoverDataset(context.Background(), ds, core.Config{Threads: threads})
				if err != nil {
					t.Fatalf("base discovery: %v", err)
				}
				for step := 0; step < 4; step++ {
					delta := dedupeDeletes(randomDelta(rng, ds))
					next, err := ds.Apply(context.Background(), delta)
					if err != nil {
						t.Fatalf("Apply: %v", err)
					}
					got, stats, err := Maintain(context.Background(), next, base, Config{Threads: threads})
					if err != nil {
						t.Fatalf("Maintain: %v", err)
					}
					want, _, err := core.DiscoverDataset(context.Background(), next, core.Config{Threads: threads})
					if err != nil {
						t.Fatalf("cold discovery: %v", err)
					}
					if got.String() != want.String() {
						t.Fatalf("seed=%d ns=%v threads=%d step=%d (+%d/-%d rows): maintained cover diverges\n got:\n%s\nwant:\n%s\nstats: %+v",
							seed, ns, threads, step, len(delta.Inserts), len(delta.Deletes), got.String(), want.String(), stats)
					}
					ds, base = next, got
				}
			}
		}
	}
}

// TestMaintainThreadCountInvariance pins bit-for-bit determinism across
// worker counts on one fixed scenario.
func TestMaintainThreadCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rel := randomRel(rng, 30, 5)
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, _, err := core.DiscoverDataset(context.Background(), ds, core.Config{Threads: 1})
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	next, err := ds.Apply(context.Background(), dataset.Delta{Inserts: []relation.Row{
		{"v0", "v1", "v2", "v0", "v1"},
		{"v9", "v9", "v9", "v9", "v9"},
	}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var covers []string
	for _, threads := range []int{1, 2, 4, 8} {
		got, _, err := Maintain(context.Background(), next, base, Config{Threads: threads})
		if err != nil {
			t.Fatalf("Maintain(threads=%d): %v", threads, err)
		}
		covers = append(covers, got.String())
	}
	for i := 1; i < len(covers); i++ {
		if covers[i] != covers[0] {
			t.Fatalf("cover at thread count %d diverges from sequential", []int{1, 2, 4, 8}[i])
		}
	}
}

// TestMaintainEmitsEvents checks the observability contract: the completion
// event fires with the base cover's size and the run's counts.
func TestMaintainEmitsEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := randomRel(rng, 20, 4)
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, _, err := core.DiscoverDataset(context.Background(), ds, core.Config{Threads: 1})
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	next, err := ds.Apply(context.Background(), dataset.Delta{
		Inserts: []relation.Row{{"v0", "v0", "v1", "v2"}},
		Deletes: []relation.Row{append(relation.Row(nil), rel.Rows[0]...)},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var done *trace.IncrementalDone
	obs := trace.ObserverFunc(func(e trace.Event) {
		if ev, ok := e.(trace.IncrementalDone); ok {
			done = &ev
		}
	})
	got, stats, err := Maintain(context.Background(), next, base, Config{Threads: 1, Observer: obs})
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	if done == nil {
		t.Fatal("expected an IncrementalDone event")
	}
	if done.BaseFDs != base.Size() || done.Breakable != stats.Breakable {
		t.Errorf("event BaseFDs = %d, Breakable = %d, want %d, %d", done.BaseFDs, done.Breakable, base.Size(), stats.Breakable)
	}
	if done.FDs != got.Size() || done.Checks != stats.Checks {
		t.Errorf("done event %+v inconsistent with stats %+v", done, stats)
	}
}

func TestMaintainRejectsNonDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, err := dataset.Prepare(context.Background(), randomRel(rng, 5, 3), dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, _, err := core.DiscoverDataset(context.Background(), ds, core.Config{Threads: 1})
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	if _, _, err := Maintain(context.Background(), ds, base, Config{}); err != ErrNotDelta {
		t.Errorf("Maintain on a root snapshot: err = %v, want ErrNotDelta", err)
	}
}

// TestMaintainHonorsCancellation: under a cancelled context, an insert-only
// batch stops before the induction and a delete batch stops in the
// rediscovery; both return the context's error and no cover.
func TestMaintainHonorsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := randomRel(rng, 20, 4)
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, _, err := core.DiscoverDataset(context.Background(), ds, core.Config{Threads: 1})
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	for _, tc := range []struct {
		name  string
		delta dataset.Delta
	}{
		{"insert", dataset.Delta{Inserts: []relation.Row{{"v0", "v1", "v2", "v0"}}}},
		{"delete", dataset.Delta{Deletes: []relation.Row{append(relation.Row(nil), rel.Rows[0]...)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next, err := ds.Apply(context.Background(), tc.delta)
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			got, _, err := Maintain(ctx, next, base, Config{})
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("Maintain under a cancelled context: got %v, err %v; want context.Canceled", got, err)
			}
		})
	}
}

// TestDeltaViolationsHonorsCancellation: the walk over the inserted
// records' cluster partners stops at a cancelled context. The table is
// sized so that the walk crosses a cancellation stride.
func TestDeltaViolationsHonorsCancellation(t *testing.T) {
	rel := relation.New("stride", []string{"k", "id"})
	for r := 0; r < 100; r++ {
		rel.AppendRow([]string{"k", fmt.Sprintf("r%d", r)})
	}
	var delta dataset.Delta
	for r := 0; r < 50; r++ {
		delta.Inserts = append(delta.Inserts, relation.Row{"k", fmt.Sprintf("n%d", r)})
	}
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	snap, err := ds.Apply(context.Background(), delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	ix, from := snap.Index(), snap.Provenance().InsertedFrom
	visits := 0
	for r := from; r < ix.NumRows; r++ {
		for a, c := range ix.Row(r) {
			if c != pli.Singleton {
				visits += len(ix.Plis[a].Clusters[c])
			}
		}
	}
	if visits <= cancelStride {
		t.Fatalf("the walk makes %d partner visits, want more than %d", visits, cancelStride)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := deltaViolations(ctx, ix, from); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("deltaViolations under a cancelled context: %d agree sets, err %v; want context.Canceled", len(out), err)
	}
}
