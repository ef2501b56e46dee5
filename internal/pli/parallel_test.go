package pli

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hyfd/internal/datasets"
	"hyfd/internal/relation"
)

// wideRelation generates a deterministic 70-column relation with keys,
// correlated columns, constants and nulls — the shapes parallel
// preprocessing must reproduce exactly.
func wideRelation(t testing.TB) *relation.Relation {
	t.Helper()
	cols := make([]datasets.Column, 70)
	for i := range cols {
		switch i % 7 {
		case 0:
			cols[i] = datasets.Column{Kind: datasets.Key}
		case 1:
			cols[i] = datasets.Column{Kind: datasets.Constant}
		case 2:
			cols[i] = datasets.Column{Kind: datasets.Categorical, Domain: 5, NullRate: 0.1}
		case 3:
			cols[i] = datasets.Column{Kind: datasets.Derived, Src: i - 1, Domain: 8}
		case 4:
			cols[i] = datasets.Column{Kind: datasets.Hierarchy, Src: i - 2, Domain: 3, NullRate: 0.05}
		default:
			cols[i] = datasets.Column{Kind: datasets.Categorical, Domain: 12}
		}
	}
	return datasets.Generate(datasets.Config{Name: "wide", Rows: 400, Seed: 7, Columns: cols})
}

// TestParallelIndexIsDeterministic asserts the core determinism contract:
// BuildAllWith and NewIndexWith yield bit-for-bit identical PLIs, records,
// order and ranks for every thread count, under both null semantics.
func TestParallelIndexIsDeterministic(t *testing.T) {
	rel := wideRelation(t)
	for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
		t.Run(ns.String(), func(t *testing.T) {
			want := NewIndex(rel, ns)
			wantPlis := BuildAll(rel, ns)
			for _, threads := range []int{0, 2, 8} {
				got := NewIndexWith(rel, ns, Options{Threads: threads})
				if !reflect.DeepEqual(got.Plis, wantPlis) {
					t.Fatalf("threads=%d: parallel PLIs differ from sequential", threads)
				}
				if !reflect.DeepEqual(got.Records, want.Records) {
					t.Fatalf("threads=%d: compressed records differ", threads)
				}
				if !reflect.DeepEqual(got.Order, want.Order) {
					t.Fatalf("threads=%d: attribute order differs", threads)
				}
				if !reflect.DeepEqual(got.Rank(), want.Rank()) {
					t.Fatalf("threads=%d: ranks differ", threads)
				}
			}
		})
	}
}

// TestIndexRows checks the record matrix against the PLIs it inverts: every
// row is NumCols long with no spare capacity, and a cell holds the id of
// the record's cluster, or Singleton when no cluster holds the record.
func TestIndexRows(t *testing.T) {
	rel := wideRelation(t)
	for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
		ix := NewIndexWith(rel, ns, Options{Threads: 2})
		if len(ix.Records) != ix.NumRows*ix.NumCols {
			t.Fatalf("%v: len(Records) = %d, want %d", ns, len(ix.Records), ix.NumRows*ix.NumCols)
		}
		want := make([]int32, len(ix.Records))
		for i := range want {
			want[i] = Singleton
		}
		for a, p := range ix.Plis {
			for cid, cluster := range p.Clusters {
				for _, r := range cluster {
					want[int(r)*ix.NumCols+a] = int32(cid)
				}
			}
		}
		for r := 0; r < ix.NumRows; r++ {
			row := ix.Row(r)
			if len(row) != ix.NumCols || cap(row) != ix.NumCols {
				t.Fatalf("%v: Row(%d) has len %d, cap %d; want both %d", ns, r, len(row), cap(row), ix.NumCols)
			}
			if !reflect.DeepEqual(row, want[r*ix.NumCols:(r+1)*ix.NumCols]) {
				t.Fatalf("%v: Row(%d) = %v, want %v", ns, r, row, want[r*ix.NumCols:(r+1)*ix.NumCols])
			}
		}
	}
}

// TestBuildAllWithOnBuildCoversEveryAttribute checks the per-attribute
// instrumentation hook fires exactly once per attribute, from any worker.
func TestBuildAllWithOnBuildCoversEveryAttribute(t *testing.T) {
	rel := wideRelation(t)
	for _, threads := range []int{1, 4} {
		var mu sync.Mutex
		seen := make(map[int]int)
		BuildAllWith(rel, relation.NullEqualsNull, Options{
			Threads: threads,
			OnBuild: func(p *PLI, d time.Duration) {
				if d < 0 {
					t.Errorf("attr %d: negative build duration %v", p.Attr, d)
				}
				mu.Lock()
				seen[p.Attr]++
				mu.Unlock()
			},
		})
		if len(seen) != rel.NumCols() {
			t.Fatalf("threads=%d: OnBuild covered %d of %d attributes", threads, len(seen), rel.NumCols())
		}
		for a, n := range seen {
			if n != 1 {
				t.Fatalf("threads=%d: attr %d built %d times", threads, a, n)
			}
		}
	}
}

// TestBuildAllWithMatchesBuild: every PLI BuildAllWith returns at 1, 2 and
// 3 threads equals a fresh Build of its attribute, under both null
// semantics. The columns cycle through a key, two symbols, long values,
// mostly empty strings and mostly nulls, so a worker's reused builder
// meets the slots, ids and arena bytes a column of another kind left.
func TestBuildAllWithMatchesBuild(t *testing.T) {
	const rows, cols = 500, 15
	r := rand.New(rand.NewSource(23))
	names := make([]string, cols)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	rel := relation.New("kinds", names)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			switch j % 5 {
			case 0:
				row[j] = strconv.Itoa(i)
			case 1:
				row[j] = []string{"a", "b"}[r.Intn(2)]
			case 2:
				row[j] = strings.Repeat("long", 10+r.Intn(3)) + strconv.Itoa(r.Intn(rows/4))
			case 3:
				if r.Intn(4) > 0 {
					row[j] = ""
				} else {
					row[j] = strconv.Itoa(r.Intn(5))
				}
			default:
				if r.Intn(5) > 0 {
					row[j] = relation.Null
				} else {
					row[j] = strconv.Itoa(r.Intn(20))
				}
			}
		}
		rel.AppendRow(row)
	}
	for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
		for _, threads := range []int{1, 2, 3} {
			for a, got := range BuildAllWith(rel, ns, Options{Threads: threads}) {
				if want := Build(a, rel.Rows, ns); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v, threads=%d, attr %d:\n got %+v\nwant %+v", ns, threads, a, got, want)
				}
			}
		}
	}
}

// BenchmarkBuildAll builds every PLI of a 100,000-row analog of the
// perfbench long table (six columns: a key plus derived and hierarchy
// columns over domains of 500 to 20,000 values, 2 % noise) at 1 and 2
// threads.
func BenchmarkBuildAll(b *testing.B) {
	rel := datasets.GenProfile(100000, 6, 7, 1, 0.5, 0.3, 0.02, 0, 500, 20000, 0)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildAllSink = BuildAllWith(rel, relation.NullEqualsNull, Options{Threads: threads})
			}
		})
	}
}

// buildAllSink keeps the benchmarked builds live.
var buildAllSink []*PLI

func BenchmarkNewIndexSequentialWide(b *testing.B) {
	rel := benchWide()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndexWith(rel, relation.NullEqualsNull, Options{Threads: 1})
	}
}

func BenchmarkNewIndexParallelWide(b *testing.B) {
	rel := benchWide()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndexWith(rel, relation.NullEqualsNull, Options{Threads: 8})
	}
}

func benchWide() *relation.Relation {
	cols := make([]datasets.Column, 64)
	for i := range cols {
		cols[i] = datasets.Column{Kind: datasets.Categorical, Domain: 1 + i%50}
	}
	return datasets.Generate(datasets.Config{
		Name: fmt.Sprintf("bench-wide-%d", len(cols)), Rows: 2000, Seed: 3, Columns: cols,
	})
}
