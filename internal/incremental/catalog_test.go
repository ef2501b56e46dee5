package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hyfd/internal/core"
	"hyfd/internal/dataset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

// catalogBase materializes the first rows of a catalog analog, prepares all
// but its last k rows as the base snapshot, discovers the base cover, and
// returns the held-back rows as an insert batch.
func catalogBase(tb testing.TB, name string, rows, k int) (*dataset.Dataset, *fd.Set, []relation.Row) {
	tb.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	rel := d.Generate(float64(rows) / float64(d.Rows)).Head(rows)
	if rel.NumRows() != rows {
		tb.Fatalf("%s: generated %d rows, want %d", name, rel.NumRows(), rows)
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

// maintainDeadline bounds each Maintain call of maintainAgainstCold.
const maintainDeadline = 30 * time.Second

// maintainAgainstCold applies delta to ds, maintains cover across it within
// maintainDeadline, and fails unless the result equals cold discovery on the
// new snapshot. It returns the maintenance and the cold run's Stats.
func maintainAgainstCold(t *testing.T, ds *dataset.Dataset, cover *fd.Set, delta dataset.Delta) (Stats, *core.Stats) {
	t.Helper()
	ctx := context.Background()
	snap, err := ds.Apply(ctx, delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	mctx, cancel := context.WithTimeout(ctx, maintainDeadline)
	defer cancel()
	got, stats, err := Maintain(mctx, snap, cover, Config{})
	if err != nil {
		t.Fatalf("+%d/-%d rows: Maintain: %v", len(delta.Inserts), len(delta.Deletes), err)
	}
	want, cold, err := core.DiscoverDataset(ctx, snap, core.Config{Threads: 1})
	if err != nil {
		t.Fatalf("cold discovery: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("+%d/-%d rows: maintained cover (%d FDs) diverges from cold discovery (%d FDs)\nmissing: %v\nextra: %v\nstats: %+v",
			len(delta.Inserts), len(delta.Deletes), got.Size(), want.Size(), want.Diff(got), got.Diff(want), stats)
	}
	return stats, cold
}

// TestMaintainCatalogAnalogs checks exactness on wide, FD-rich base covers
// (the hepatitis analog has thousands of FDs), which the random tables of
// TestMaintainMatchesColdDiscovery do not reach: per table one insert, one
// delete and one mixed batch must each reproduce cold discovery at full
// width, and each Maintain must finish within maintainDeadline.
func TestMaintainCatalogAnalogs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rows, k int
	}{
		{"hepatitis", 155, 15},
		{"ncvoter", 2000, 20},
		{"ncvoter", 2000, 200},
	} {
		t.Run(fmt.Sprintf("%s+%d", tc.name, tc.k), func(t *testing.T) {
			ds, cover, inserts := catalogBase(t, tc.name, tc.rows, tc.k)
			if s, _ := maintainAgainstCold(t, ds, cover, dataset.Delta{Inserts: inserts}); s.Checks != 0 || s.Breakable == 0 {
				t.Errorf("insert batch: %d refinement checks and %d broken base FDs, want 0 and some", s.Checks, s.Breakable)
			}
			deletes := ds.Relation().Rows[:tc.k/2]
			for _, delta := range []dataset.Delta{
				{Deletes: deletes},
				{Inserts: inserts, Deletes: deletes},
			} {
				if s, cold := maintainAgainstCold(t, ds, cover, delta); int64(s.Checks) != cold.Validations || s.Breakable != 0 || s.Specialized != 0 {
					t.Errorf("+%d/-%d rows: %d checks, %d broken and %d specialized FDs; want the rediscovery's %d validations, 0 and 0",
						len(delta.Inserts), len(delta.Deletes), s.Checks, s.Breakable, s.Specialized, cold.Validations)
				}
			}
		})
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
			ds, cover, inserts := catalogBase(b, bc.name, bc.rows, bc.k)
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

// BenchmarkMaintainDelete times Maintain alone on a delete batch: k rows,
// a seeded sample of a catalog analog's first N rows, deleted from a
// snapshot of all N. Preparation, base discovery and Apply run before the
// timer.
func BenchmarkMaintainDelete(b *testing.B) {
	for _, bc := range []struct {
		name    string
		rows, k int
	}{
		{"abalone", 2000, 20},
		{"chess", 2000, 20},
		{"breast-cancer", 699, 7},
		{"letter", 1000, 10},
		{"ncvoter", 2000, 1},
		{"hepatitis", 155, 7},
	} {
		b.Run(fmt.Sprintf("%s-%d", bc.name, bc.k), func(b *testing.B) {
			ds, cover, _ := catalogBase(b, bc.name, bc.rows, 0)
			rows := ds.Relation().Rows
			var deletes []relation.Row
			for _, r := range rand.New(rand.NewSource(1)).Perm(len(rows))[:bc.k] {
				deletes = append(deletes, rows[r])
			}
			snap, err := ds.Apply(context.Background(), dataset.Delta{Deletes: deletes})
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
