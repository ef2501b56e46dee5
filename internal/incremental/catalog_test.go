package incremental

import (
	"context"
	"fmt"
	"testing"

	"hyfd/internal/core"
	"hyfd/internal/dataset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

// catalogBase materializes the first rows of a catalog analog, keeps its
// first cols columns (all when cols is 0), prepares all but its last k rows
// as the base snapshot, discovers the base cover, and returns the held-back
// rows as an insert batch.
func catalogBase(tb testing.TB, name string, rows, cols, k int) (*dataset.Dataset, *fd.Set, []relation.Row) {
	tb.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	rel := d.Generate(float64(rows) / float64(d.Rows)).Head(rows)
	if rel.NumRows() != rows {
		tb.Fatalf("%s: generated %d rows, want %d", name, rel.NumRows(), rows)
	}
	if cols > 0 {
		rel = rel.Project(cols)
	}
	base := rel.Head(rows - k)
	base.Name = name
	ds, err := dataset.Prepare(context.Background(), base, dataset.Options{Threads: 1})
	if err != nil {
		tb.Fatalf("%s: Prepare: %v", name, err)
	}
	cover, _, err := core.DiscoverDataset(context.Background(), ds, core.Config{Threads: 1})
	if err != nil {
		tb.Fatalf("%s: base discovery: %v", name, err)
	}
	return ds, cover, rel.Rows[rows-k:]
}

// maintainAgainstCold applies delta to ds, maintains cover across it, and
// fails unless the result equals cold discovery on the new snapshot.
func maintainAgainstCold(t *testing.T, ds *dataset.Dataset, cover *fd.Set, delta dataset.Delta) Stats {
	t.Helper()
	ctx := context.Background()
	snap, err := ds.Apply(ctx, delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, stats, err := Maintain(ctx, snap, cover, Config{})
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	want, _, err := core.DiscoverDataset(ctx, snap, core.Config{Threads: 1})
	if err != nil {
		t.Fatalf("cold discovery: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("+%d/-%d rows: maintained cover (%d FDs) diverges from cold discovery (%d FDs)\nmissing: %v\nextra: %v\nstats: %+v",
			len(delta.Inserts), len(delta.Deletes), got.Size(), want.Size(), want.Diff(got), got.Diff(want), stats)
	}
	return stats
}

// TestMaintainCatalogAnalogs checks exactness on wide, FD-rich base covers
// (the hepatitis analog has thousands of FDs), which the random tables of
// TestMaintainMatchesColdDiscovery do not reach: per table one insert, one
// delete and one mixed batch must each reproduce cold discovery. Delete and
// mixed batches run on the table's first delCols columns: the delete phase
// descends through every valid subset of a deleted row's touched
// attributes, and at full width these rows touch 17 to 20 attributes. The
// deleted rows slide until a batch revives an FD, so the delete phase's
// generalization and the final minimization run.
func TestMaintainCatalogAnalogs(t *testing.T) {
	generalized := false
	for _, tc := range []struct {
		name             string
		rows, k, delCols int
	}{
		{"hepatitis", 155, 15, 12},
		{"ncvoter", 2000, 20, 8},
		{"ncvoter", 2000, 200, 8},
	} {
		t.Run(fmt.Sprintf("%s+%d", tc.name, tc.k), func(t *testing.T) {
			ds, cover, inserts := catalogBase(t, tc.name, tc.rows, 0, tc.k)
			if s := maintainAgainstCold(t, ds, cover, dataset.Delta{Inserts: inserts}); s.Checks != 0 || s.Breakable == 0 {
				t.Errorf("insert batch: %d refinement checks and %d broken base FDs, want 0 and some", s.Checks, s.Breakable)
			}
			ds, cover, inserts = catalogBase(t, tc.name, tc.rows, tc.delCols, tc.k)
			rows := ds.Relation().Rows
			var deletes []relation.Row
			for from := 0; from+tc.k/2 <= len(rows); from += tc.k / 2 {
				deletes = rows[from : from+tc.k/2]
				if s := maintainAgainstCold(t, ds, cover, dataset.Delta{Deletes: deletes}); s.Generalized > 0 {
					generalized = true
					break
				}
			}
			maintainAgainstCold(t, ds, cover, dataset.Delta{Inserts: inserts, Deletes: deletes})
		})
	}
	if !generalized {
		t.Error("no delete batch revived an FD, so the delete phase's generalization and the final Minimize went untested")
	}
}

// sink keeps benchmark results alive.
var sink *fd.Set

// BenchmarkMaintainInsert times Maintain alone on an insert batch: the
// last k rows of a catalog analog inserted into a snapshot of the rows
// before them. Preparation, base discovery and Apply run before the timer.
func BenchmarkMaintainInsert(b *testing.B) {
	for _, bc := range []struct {
		name    string
		rows, k int
	}{
		{"hepatitis", 155, 15},
		{"letter", 1000, 10},
		{"ncvoter", 2000, 20},
		{"ncvoter", 2000, 200},
	} {
		b.Run(fmt.Sprintf("%s+%d", bc.name, bc.k), func(b *testing.B) {
			ds, cover, inserts := catalogBase(b, bc.name, bc.rows, 0, bc.k)
			snap, err := ds.Apply(context.Background(), dataset.Delta{Inserts: inserts})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set, _, err := Maintain(context.Background(), snap, cover, Config{})
				if err != nil {
					b.Fatal(err)
				}
				sink = set
			}
		})
	}
}
