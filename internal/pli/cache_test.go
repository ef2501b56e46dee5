package pli

import (
	"math/rand"
	"testing"

	"hyfd/internal/bitset"
	"hyfd/internal/relation"
)

func cacheRelation(r *rand.Rand, rows, cols, domain int) *relation.Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	rel := relation.New("c", names)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			row[j] = string(rune('a' + r.Intn(domain)))
		}
		rel.AppendRow(row)
	}
	return rel
}

func TestCachePartitionMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	rel := cacheRelation(r, 60, 5, 3)
	cache := NewCache(NewIndex(rel, relation.NullEqualsNull))
	for trial := 0; trial < 20; trial++ {
		attrs := bitset.New(5)
		for a := 0; a < 5; a++ {
			if r.Intn(2) == 0 {
				attrs.Set(a)
			}
		}
		got := cache.Partition(attrs)
		// Direct: group the rows by their values on the set.
		idx := attrs.Indices()
		if len(idx) == 0 {
			if got.NumRows != rel.NumRows() {
				t.Fatalf("∅ partition rows = %d", got.NumRows)
			}
			if rel.NumRows() > 1 && got.Size() != rel.NumRows() {
				t.Fatalf("∅ partition size = %d", got.Size())
			}
			continue
		}
		combined := make([]string, rel.NumRows())
		for i, row := range rel.Rows {
			for _, a := range idx {
				combined[i] += row[a] + "\x01"
			}
		}
		want := PartitionOf(Build(0, columnRows(0, combined), relation.NullEqualsNull))
		if got.Error() != want.Error() || got.Size() != want.Size() {
			t.Fatalf("cache partition of %v: err %d size %d, want err %d size %d",
				attrs, got.Error(), got.Size(), want.Error(), want.Size())
		}
		if normalize(got) != normalize(want) {
			t.Fatalf("cache partition of %v groups other records than the direct grouping", attrs)
		}
	}
	if cache.Size() == 0 {
		t.Fatal("cache stored nothing")
	}
	// Second retrieval must be the cached object.
	attrs := bitset.FromIndices(5, 0, 2)
	if cache.Partition(attrs) != cache.Partition(attrs) {
		t.Fatal("cache returned distinct objects for the same set")
	}
}

func TestCacheCard(t *testing.T) {
	rel := relation.New("c", []string{"A", "B"})
	rel.AppendRow([]string{"x", "1"})
	rel.AppendRow([]string{"x", "2"})
	rel.AppendRow([]string{"y", "1"})
	cache := NewCache(NewIndex(rel, relation.NullEqualsNull))
	if got := cache.Card(bitset.New(2)); got != 1 {
		t.Fatalf("card(∅) = %d", got)
	}
	if got := cache.Card(bitset.FromIndices(2, 0)); got != 2 {
		t.Fatalf("card(A) = %d", got)
	}
	if got := cache.Card(bitset.FromIndices(2, 0, 1)); got != 3 {
		t.Fatalf("card(AB) = %d", got)
	}
	// Empty relation.
	empty := NewCache(NewIndex(relation.New("e", []string{"A"}), relation.NullEqualsNull))
	if got := empty.Card(bitset.New(1)); got != 0 {
		t.Fatalf("card(∅) on empty relation = %d", got)
	}
}

func TestIndexRankOrderConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rel := cacheRelation(r, 40, 4, 4)
	ix := NewIndex(rel, relation.NullEqualsNull)
	rank := ix.Rank()
	for pos, attr := range ix.Order {
		if rank[attr] != pos {
			t.Fatalf("Rank/Order inconsistent at %d", pos)
		}
	}
	// Order must be by descending distinct count.
	for i := 0; i+1 < len(ix.Order); i++ {
		if ix.Plis[ix.Order[i]].NumClusters < ix.Plis[ix.Order[i+1]].NumClusters {
			t.Fatal("Order not descending by NumClusters")
		}
	}
}
