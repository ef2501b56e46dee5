package sampler

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"hyfd/internal/bitset"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

// fuzzRelation shapes a relation of up to 8 columns and 255 rows from fuzz
// bytes: data[0] picks the columns, data[1] the rows, and one byte per
// column its kind. The low three bits of the kind pick 1 to 6 symbols, a key
// column, or a domain of half the rows; bit 7 turns about a quarter of the
// column's cells into nulls. Up to eight more bytes seed the generator that
// draws the cells. Missing bytes read as zero.
func fuzzRelation(data []byte) *relation.Relation {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	cols, rows := 1+int(at(0))%8, int(at(1))
	var seed int64
	for i := 2 + cols; i < len(data) && i < 10+cols; i++ {
		seed = seed<<8 | int64(data[i])
	}
	r := rand.New(rand.NewSource(seed))
	names := make([]string, cols)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	rel := relation.New("fuzz", names)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			kind := at(2 + j)
			switch v := int(kind % 8); {
			case kind&0x80 != 0 && r.Intn(4) == 0:
				row[j] = relation.Null
			case v < 6:
				row[j] = strconv.Itoa(r.Intn(v + 1))
			case v == 6:
				row[j] = strconv.Itoa(i)
			default:
				row[j] = strconv.Itoa(r.Intn(rows/2 + 1))
			}
		}
		rel.AppendRow(row)
	}
	return rel
}

// fuzzRound is what one Run call returned and left in the sampler's counts.
type fuzzRound struct {
	obs            []bitset.Set
	comps, windows int64
	allPairs       bool
}

// FuzzSamplerDifferential checks the sampler against itself across thread
// counts on fuzzed relations, under both null semantics: every sorted
// cluster equals the comparison-sort reference, and two Run calls at 1, 2
// and 3 threads, each with and without the repeat skip, return identical
// observations in identical order with identical Comparisons, Windows and
// AllPairs; the reference is one thread with the skip off, which looks
// every agree set up. The second call replays up to eight suggestion pairs
// picked by the second input's bytes.
func FuzzSamplerDifferential(f *testing.F) {
	// Small alphabets, a key column and a nullable column.
	f.Add([]byte{4, 120, 1, 3, 6, 0x84, 9, 1, 7}, []byte{0, 1, 5, 9})
	// Eight columns of every kind over 255 rows.
	f.Add([]byte{7, 255, 0, 1, 2, 3, 4, 5, 6, 0x87, 42, 17}, []byte{3, 200, 7, 7, 250, 1})
	// Coarse columns whose windows reach the all-pairs budget.
	f.Add([]byte{2, 90, 0x81, 2, 4}, []byte{})
	// One column, and no rows.
	f.Add([]byte{0, 60, 3}, []byte{1, 2})
	f.Add([]byte{5, 0}, []byte{})
	f.Fuzz(func(t *testing.T, data, sugs []byte) {
		rel := fuzzRelation(data)
		var pairs []pli.Pair
		for k := 0; k+1 < len(sugs) && k < 16 && rel.NumRows() > 0; k += 2 {
			pairs = append(pairs, pli.Pair{A: int32(int(sugs[k]) % rel.NumRows()), B: int32(int(sugs[k+1]) % rel.NumRows())})
		}
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			ix := pli.NewIndex(rel, ns)
			want := referenceSortation(ix)
			var ref []fuzzRound
			for _, threads := range []int{1, 2, 3} {
				if diff := sortationDiff(ix, threads, want); diff != "" {
					t.Fatalf("ns=%v threads=%d: %s", ns, threads, diff)
				}
				for _, lookupRepeats := range []bool{true, false} {
					s := New(ix, Config{Threads: threads})
					s.lookupRepeats = lookupRepeats
					for round, suggestions := range [][]pli.Pair{nil, pairs} {
						obs, err := s.Run(context.Background(), suggestions)
						if err != nil {
							t.Fatal(err)
						}
						got := fuzzRound{obs, s.Comparisons, s.Windows, s.AllPairs()}
						if threads == 1 && lookupRepeats {
							ref = append(ref, got)
							continue
						}
						if w := ref[round]; got.comps != w.comps || got.windows != w.windows || got.allPairs != w.allPairs ||
							!slices.EqualFunc(got.obs, w.obs, bitset.Set.Equal) {
							t.Fatalf("ns=%v threads=%d skip %v round %d: observations %v, %d comparisons, %d windows, all pairs %v; want %v, %d, %d, %v",
								ns, threads, !lookupRepeats, round, got.obs, got.comps, got.windows, got.allPairs, w.obs, w.comps, w.windows, w.allPairs)
						}
					}
				}
			}
		}
	})
}
