package ucc

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/relation"
)

// discoverRel prepares rel single-threaded under ns and runs Discover over
// it.
func discoverRel(rel *relation.Relation, ns relation.NullSemantics, maxSize int) ([]bitset.Set, error) {
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{NullSemantics: ns, Threads: 1})
	if err != nil {
		return nil, err
	}
	return Discover(context.Background(), ds, maxSize)
}

func randomRelation(r *rand.Rand, rows, cols, domain int) *relation.Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
	}
	rel := relation.New("rnd", names)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(domain))
		}
		rel.AppendRow(row)
	}
	return rel
}

// bruteUCCs enumerates minimal uniques directly.
func bruteUCCs(rel *relation.Relation) map[string]bool {
	m := rel.NumCols()
	unique := func(attrs bitset.Set) bool {
		seen := make(map[string]bool)
		idx := attrs.Indices()
		for _, row := range rel.Rows {
			key := ""
			for _, a := range idx {
				key += row[a] + "\x01"
			}
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	var all []bitset.Set
	for mask := 0; mask < 1<<m; mask++ {
		x := bitset.New(m)
		for a := 0; a < m; a++ {
			if mask&(1<<a) != 0 {
				x.Set(a)
			}
		}
		if unique(x) {
			all = append(all, x)
		}
	}
	out := make(map[string]bool)
	for _, x := range all {
		minimal := true
		for _, y := range all {
			if y.IsProperSubsetOf(x) {
				minimal = false
				break
			}
		}
		if minimal {
			out[x.Key()] = true
		}
	}
	return out
}

func assertMatchesBrute(t *testing.T, rel *relation.Relation, got []bitset.Set) {
	t.Helper()
	want := bruteUCCs(rel)
	if len(got) != len(want) {
		t.Fatalf("got %d UCCs, want %d: %v", len(got), len(want), got)
	}
	for _, u := range got {
		if !want[u.Key()] {
			t.Fatalf("spurious UCC %v", u)
		}
	}
}

func TestDiscoverSimple(t *testing.T) {
	rel := relation.New("t", []string{"ID", "X", "Y"})
	for i := 0; i < 12; i++ {
		rel.AppendRow([]string{strconv.Itoa(i), strconv.Itoa(i % 3), strconv.Itoa(i % 4)})
	}
	got, err := discoverRel(rel, relation.NullEqualsNull, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBrute(t, rel, got)
	// {ID} and {X,Y} (CRT: periods 3 and 4 identify i mod 12).
	if len(got) != 2 {
		t.Fatalf("UCCs = %v", got)
	}
}

func TestDiscoverEdgeCases(t *testing.T) {
	// Single row: the empty set is unique.
	one := relation.New("one", []string{"A", "B"})
	one.AppendRow([]string{"x", "y"})
	got, err := discoverRel(one, relation.NullEqualsNull, 0)
	if err != nil || len(got) != 1 || !got[0].IsEmpty() {
		t.Fatalf("got %v, %v", got, err)
	}
	// Duplicate rows: nothing is unique.
	dup := relation.New("dup", []string{"A", "B"})
	dup.AppendRow([]string{"x", "y"})
	dup.AppendRow([]string{"x", "y"})
	got, err = discoverRel(dup, relation.NullEqualsNull, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	// Max size bound.
	r := rand.New(rand.NewSource(4))
	rel := randomRelation(r, 30, 5, 2)
	bounded, err := discoverRel(rel, relation.NullEqualsNull, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range bounded {
		if u.Cardinality() > 2 {
			t.Fatalf("UCC %v exceeds bound", u)
		}
	}
}

func TestDiscoverNullSemantics(t *testing.T) {
	rel := relation.New("n", []string{"A"})
	rel.AppendRow([]string{relation.Null})
	rel.AppendRow([]string{relation.Null})
	// Under ⊥=⊥ the two rows collide; under ⊥≠⊥ each null is distinct.
	eq, _ := discoverRel(rel, relation.NullEqualsNull, 0)
	if len(eq) != 0 {
		t.Fatalf("null=null UCCs = %v", eq)
	}
	ne, _ := discoverRel(rel, relation.NullNotEqualsNull, 0)
	if len(ne) != 1 || !ne[0].Equal(bitset.FromIndices(1, 0)) {
		t.Fatalf("null!=null UCCs = %v", ne)
	}
}

func TestQuickDiscoverMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r, 1+r.Intn(40), 2+r.Intn(4), 1+r.Intn(5))
		got, err := discoverRel(rel, relation.NullEqualsNull, 0)
		if err != nil {
			return false
		}
		want := bruteUCCs(rel)
		if len(got) != len(want) {
			return false
		}
		for _, u := range got {
			if !want[u.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDiscoverKeyedRelation checks a 50-row relation with a key column
// against the brute-force oracle.
func TestDiscoverKeyedRelation(t *testing.T) {
	rel := relation.New("k", []string{"ID", "X", "Y", "Z"})
	for i := 0; i < 50; i++ {
		rel.AppendRow([]string{
			strconv.Itoa(i), strconv.Itoa(i % 5), strconv.Itoa(i % 7), strconv.Itoa(i % 2),
		})
	}
	got, err := discoverRel(rel, relation.NullEqualsNull, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBrute(t, rel, got)
}
