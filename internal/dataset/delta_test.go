package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

// randomRel builds a small random relation with enough value collisions to
// exercise cluster extension, singleton joins, and fresh values.
func randomRel(rng *rand.Rand, rows, cols int) *relation.Relation {
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	rel := relation.New("rand", names)
	for r := 0; r < rows; r++ {
		row := make([]string, cols)
		for c := range row {
			switch rng.Intn(6) {
			case 0:
				row[c] = relation.Null
			default:
				row[c] = fmt.Sprintf("v%d", rng.Intn(4))
			}
		}
		rel.AppendRow(row)
	}
	return rel
}

func randomRows(rng *rand.Rand, n, cols int) []relation.Row {
	out := make([]relation.Row, n)
	for i := range out {
		row := make([]string, cols)
		for c := range row {
			if rng.Intn(6) == 0 {
				row[c] = relation.Null
			} else {
				row[c] = fmt.Sprintf("v%d", rng.Intn(4))
			}
		}
		out[i] = row
	}
	return out
}

// assertIndexEqual compares an Apply-produced index bit-for-bit against a
// cold Prepare over the same relation contents.
func assertIndexEqual(t *testing.T, tag string, got, want *pli.Index) {
	t.Helper()
	if !reflect.DeepEqual(want.Plis, got.Plis) {
		t.Errorf("%s: PLIs diverge from cold build\n got: %+v\nwant: %+v", tag, got.Plis, want.Plis)
	}
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Errorf("%s: records diverge from cold build", tag)
	}
	if !reflect.DeepEqual(want.Order, got.Order) {
		t.Errorf("%s: attribute order diverges from cold build", tag)
	}
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
		t.Errorf("%s: dims %dx%d, want %dx%d", tag, got.NumRows, got.NumCols, want.NumRows, want.NumCols)
	}
}

// TestApplyMatchesColdPrepare is the core structural-sharing contract: a
// snapshot chain built with Apply is bit-for-bit identical to cold Prepare
// on the final relation, for both null semantics and several thread counts.
func TestApplyMatchesColdPrepare(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			for _, threads := range []int{1, 4} {
				rng := rand.New(rand.NewSource(seed))
				rel := randomRel(rng, 8+rng.Intn(20), 1+rng.Intn(5))
				ds, err := Prepare(context.Background(), rel, Options{NullSemantics: ns, Threads: threads})
				if err != nil {
					t.Fatalf("Prepare: %v", err)
				}
				for step := 0; step < 3; step++ {
					delta := Delta{Inserts: randomRows(rng, rng.Intn(4), rel.NumCols())}
					if step == 2 && ds.NumRows() > 2 {
						// Delete two existing rows by value to hit the
						// rebuild path.
						delta.Deletes = []relation.Row{
							append(relation.Row(nil), ds.Relation().Rows[rng.Intn(ds.NumRows())]...),
						}
					}
					next, err := ds.Apply(context.Background(), delta)
					if err != nil {
						t.Fatalf("Apply: %v", err)
					}
					cold, err := Prepare(context.Background(), next.Relation(), Options{NullSemantics: ns, Threads: 1})
					if err != nil {
						t.Fatalf("cold Prepare: %v", err)
					}
					tag := fmt.Sprintf("seed=%d ns=%v threads=%d step=%d", seed, ns, threads, step)
					assertIndexEqual(t, tag, next.Index(), cold.Index())
					if next.Version() != ds.Version()+1 {
						t.Errorf("%s: version %d, want %d", tag, next.Version(), ds.Version()+1)
					}
					prov := next.Provenance()
					if prov == nil {
						t.Fatalf("%s: delta snapshot must carry provenance", tag)
					}
					if prov.BaseVersion != ds.Version() || prov.Inserts != len(delta.Inserts) || prov.Deletes != len(delta.Deletes) {
						t.Errorf("%s: provenance %+v inconsistent with delta", tag, prov)
					}
					if want := next.NumRows() - len(delta.Inserts); prov.InsertedFrom != want {
						t.Errorf("%s: InsertedFrom = %d, want %d", tag, prov.InsertedFrom, want)
					}
					if len(delta.Deletes) > 0 && prov.SharedAttrs != 0 {
						t.Errorf("%s: deletes force a rebuild, SharedAttrs = %d", tag, prov.SharedAttrs)
					}
					ds = next
				}
			}
		}
	}
}

// TestApplyParentUntouched pins immutability: applying a delta must leave
// the parent snapshot's relation, PLIs, and records byte-identical.
func TestApplyParentUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := randomRel(rng, 16, 3)
	ds, err := Prepare(context.Background(), rel, Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	before, err := Prepare(context.Background(), ds.Relation(), Options{Threads: 1})
	if err != nil {
		t.Fatalf("snapshot Prepare: %v", err)
	}
	// Inserts that extend existing clusters and join singletons.
	ins := append(randomRows(rng, 6, 3), append(relation.Row(nil), rel.Rows[0]...))
	if _, err := ds.Apply(context.Background(), Delta{Inserts: ins}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := ds.Apply(context.Background(), Delta{Deletes: []relation.Row{append(relation.Row(nil), rel.Rows[1]...)}}); err != nil {
		t.Fatalf("Apply deletes: %v", err)
	}
	assertIndexEqual(t, "parent after Apply", ds.Index(), before.Index())
	if len(ds.Relation().Rows) != 16 {
		t.Errorf("parent relation grew to %d rows", len(ds.Relation().Rows))
	}
}

func TestApplyEmptyDelta(t *testing.T) {
	ds, err := Prepare(context.Background(), sampleRel(), Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	next, err := ds.Apply(context.Background(), Delta{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if next.Version() != 2 || next.Index() != ds.Index() {
		t.Errorf("empty delta should advance the version (got %d) while sharing the index", next.Version())
	}
	if next.Provenance().SharedAttrs != ds.NumCols() {
		t.Errorf("SharedAttrs = %d, want %d", next.Provenance().SharedAttrs, ds.NumCols())
	}
}

func TestApplyErrors(t *testing.T) {
	ds, err := Prepare(context.Background(), sampleRel(), Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := ds.Apply(context.Background(), Delta{Inserts: []relation.Row{{"too", "short"}}}); err == nil {
		t.Error("insert arity mismatch should fail")
	}
	if _, err := ds.Apply(context.Background(), Delta{Deletes: []relation.Row{{"no", "such", "row"}}}); err == nil {
		t.Error("unmatched delete should fail")
	}
	// Deleting the same duplicated row more often than it occurs must fail.
	dup := []string{"1", "x", "p"}
	if _, err := ds.Apply(context.Background(), Delta{Deletes: []relation.Row{dup, dup}}); err == nil {
		t.Error("over-deleting a row should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.Apply(ctx, Delta{}); err == nil {
		t.Error("Apply with canceled context should fail")
	}
}

// TestApplyInsertOnlySharesClusters verifies the copy-on-write claim: with
// inserts of entirely fresh values, every attribute's cluster list backing
// is shared with the parent.
func TestApplyInsertOnlySharesClusters(t *testing.T) {
	ds, err := Prepare(context.Background(), sampleRel(), Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	next, err := ds.Apply(context.Background(), Delta{Inserts: []relation.Row{{"9", "z", "w"}}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := next.Provenance().SharedAttrs; got != ds.NumCols() {
		t.Errorf("SharedAttrs = %d, want %d (all values fresh)", got, ds.NumCols())
	}
	for a := 0; a < ds.NumCols(); a++ {
		oldC := ds.Index().Plis[a].Clusters
		newC := next.Index().Plis[a].Clusters
		if len(oldC) > 0 && &oldC[0] != &newC[0] {
			t.Errorf("attr %d: cluster list not structurally shared", a)
		}
	}
}

// TestApplySiblingSnapshots applies several insert deltas to one parent
// that was itself built by an insert. Every child gets its own record
// matrix: if one appended into the parent's, a sibling's rows would
// overwrite it.
func TestApplySiblingSnapshots(t *testing.T) {
	rel := relation.New("siblings", []string{"A", "B", "C"})
	for _, row := range [][]string{
		{"a", "x", "1"}, {"a", "y", "2"}, {"b", "x", "3"}, {"b", "y", "4"}, {"c", "z", "5"},
	} {
		rel.AppendRow(row)
	}
	for _, threads := range []int{1, 4} {
		ctx := context.Background()
		check := func(tag string, ds *Dataset) {
			t.Helper()
			cold, err := Prepare(ctx, ds.Relation(), Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s: cold Prepare: %v", tag, err)
			}
			assertIndexEqual(t, fmt.Sprintf("threads=%d %s", threads, tag), ds.Index(), cold.Index())
		}
		apply := func(ds *Dataset, rows ...relation.Row) *Dataset {
			t.Helper()
			next, err := ds.Apply(ctx, Delta{Inserts: rows})
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			return next
		}
		v1, err := Prepare(ctx, rel, Options{Threads: threads})
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		v2 := apply(v1, relation.Row{"a", "x", "6"})
		// Two children that only extend clusters, with different rows, and
		// one whose "c" joins the old singleton record 4, so its attribute
		// A is rewired.
		extend1 := apply(v2, relation.Row{"b", "y", "7"}, relation.Row{"a", "y", "8"})
		rewire := apply(v2, relation.Row{"c", "x", "9"})
		extend2 := apply(v2, relation.Row{"a", "x", "10"}, relation.Row{"b", "x", "11"})
		check("v1", v1)
		check("v2", v2)
		check("extend1", extend1)
		check("rewire", rewire)
		check("extend2", extend2)
	}
}
