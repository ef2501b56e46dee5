package hyfd_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hyfd"
	"hyfd/internal/afd"
	"hyfd/internal/bitset"
	"hyfd/internal/pli"
)

// latticeMaxErrors are the g3 thresholds FuzzLatticeDifferential draws
// from; 0.2 and 1/3 are exact g3 values at 5 and 3 rows (or multiples), so
// the threshold comparison is probed at equality.
var latticeMaxErrors = []float64{0, 0.05, 0.2, 1.0 / 3, 0.5}

// latticeFuzzInput shapes a relation and the lattice settings from raw
// fuzz bytes: 1–8 columns, 0–64 rows, a bound of 0–3 on LHS and ucc sizes
// and a g3 threshold, then cells row-major from four letters plus NULL
// (bytes ≡ 6 mod 7). Missing bytes read as zero.
func latticeFuzzInput(data []byte) (rel *hyfd.Relation, maxLhs int, maxError float64) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	cols := 1 + int(at(0))%8
	rows := int(at(1)) % 65
	maxLhs = int(at(2)) % 4
	maxError = latticeMaxErrors[int(at(3))%len(latticeMaxErrors)]
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	rel = hyfd.NewRelation("fuzz", names)
	cell := 4
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			if b := at(cell); b%7 == 6 {
				row[j] = hyfd.Null
			} else {
				row[j] = string(rune('a' + b%4))
			}
			cell++
		}
		rel.AppendRow(row)
	}
	return rel, maxLhs, maxError
}

// oracleCells returns the relation's cells as the naive oracles compare
// them: under ⊥≠⊥ every null becomes a token unique to its cell, so equal
// strings mean equal values under either semantics.
func oracleCells(rel *hyfd.Relation, ns hyfd.NullSemantics) [][]string {
	cells := make([][]string, rel.NumRows())
	for r, row := range rel.Rows {
		cells[r] = append([]string(nil), row...)
		for c, v := range cells[r] {
			if ns == hyfd.NullNotEqualsNull && v == hyfd.Null {
				cells[r][c] = fmt.Sprintf("\x00null %d %d", r, c)
			}
		}
	}
	return cells
}

// groupRecords groups the given records, in order, by their values on
// attrs, listing the groups by first record.
func groupRecords(cells [][]string, records []int32, attrs []int) [][]int32 {
	index := map[string]int{}
	var groups [][]int32
	for _, r := range records {
		var key strings.Builder
		for _, a := range attrs {
			key.WriteString(cells[r][a])
			key.WriteByte(0)
		}
		g, ok := index[key.String()]
		if !ok {
			g = len(groups)
			index[key.String()] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

// strippedGroups keeps the groups of at least two records.
func strippedGroups(groups [][]int32) [][]int32 {
	var out [][]int32
	for _, g := range groups {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// allRecords lists the record ids 0..n-1.
func allRecords(n int) []int32 {
	recs := make([]int32, n)
	for i := range recs {
		recs[i] = int32(i)
	}
	return recs
}

// naiveViolations counts the records to remove so that lhs → rhs holds:
// per group of lhs, all but the most frequent rhs value.
func naiveViolations(cells [][]string, lhs []int, rhs int) int {
	v := 0
	for _, g := range groupRecords(cells, allRecords(len(cells)), lhs) {
		most := 0
		for _, sub := range groupRecords(cells, g, []int{rhs}) {
			most = max(most, len(sub))
		}
		v += len(g) - most
	}
	return v
}

// FuzzLatticeDifferential checks the partition kernel and the two lattice
// searches built on it against naive oracles, under both null semantics:
//   - pli's Refine, for every attribute set X and attribute a, equals
//     grouping each cluster of the directly grouped π(X) by a, in the
//     documented cluster order;
//   - afd.G3 equals a naive g3 for every (X, A);
//   - ucc mode equals brute-force enumeration of the minimal unique
//     column combinations within the size bound;
//   - afd mode equals the brute-force minimal AFDs within the LHS bound,
//     g3 values included.
func FuzzLatticeDifferential(f *testing.F) {
	// Three columns, eight rows with nulls, unbounded, ε = 0.2.
	f.Add([]byte{2, 8, 0, 2, 0, 1, 2, 6, 1, 13, 2, 1, 0, 255, 20, 4, 6, 6, 3, 3, 1, 0, 2, 2, 5, 5, 5, 6})
	// Eight columns, five rows, LHS bound 2, ε = 0.05.
	f.Add([]byte{7, 5, 2, 1, 0, 1, 2, 3, 0, 1, 2, 3, 6, 0, 0, 1, 1, 2, 2, 3, 3, 6, 6, 0, 1, 2, 3, 0, 1, 2, 3, 0, 4, 8, 12, 1, 5, 9, 13, 6})
	// Degenerate shapes: no rows; one row.
	f.Add([]byte{4, 0, 1, 3})
	f.Add([]byte{1, 1, 0, 4, 9, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, maxLhs, maxError := latticeFuzzInput(data)
		m, n := rel.NumCols(), rel.NumRows()
		bound := maxLhs
		if bound == 0 {
			bound = m
		}
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			cells := oracleCells(rel, ns)
			ix := pli.NewIndex(rel, ns)
			ref := pli.NewRefiner(ix)
			cache := pli.NewCache(ix)
			var wantUCCs []bitset.Set
			var wantAFDs []hyfd.ApproximateFD
			valid := map[string]bool{} // "X/A" of every valid AFD X → A within the bound
			for mask := 0; mask < 1<<m; mask++ {
				x := bitset.New(m)
				for a := 0; a < m; a++ {
					if mask&(1<<a) != 0 {
						x.Set(a)
					}
				}
				attrs := x.Indices()
				direct := strippedGroups(groupRecords(cells, allRecords(n), attrs))
				for a := 0; a < m; a++ {
					if len(attrs) == 0 || x.Test(a) {
						continue
					}
					got := ref.Refine(&pli.Partition{Clusters: direct, NumRows: n}, a)
					var want [][]int32
					for _, c := range direct {
						want = append(want, strippedGroups(groupRecords(cells, c, []int{a}))...)
					}
					if !reflect.DeepEqual(got.Clusters, want) {
						t.Fatalf("%v: Refine(π%v, %d) = %v, want %v", ns, x, a, got.Clusters, want)
					}
				}
				if len(attrs) <= bound && len(direct) == 0 {
					minimal := true
					for _, u := range wantUCCs {
						if u.IsSubsetOf(x) {
							minimal = false
						}
					}
					if minimal {
						wantUCCs = append(wantUCCs, x)
					}
				}
				for rhs := 0; rhs < m; rhs++ {
					if x.Test(rhs) {
						continue
					}
					v := naiveViolations(cells, attrs, rhs)
					g3 := 0.0
					if n > 0 {
						g3 = float64(v) / float64(n)
					}
					if got := afd.G3(ix, cache, x, rhs); got != g3 {
						t.Fatalf("%v: G3(%v -> %d) = %v, want %v", ns, x, rhs, got, g3)
					}
					if len(attrs) > min(bound, m-1) || g3 > maxError {
						continue
					}
					valid[fmt.Sprintf("%s/%d", x.Key(), rhs)] = true
					minimal := true
					for _, b := range attrs {
						if valid[fmt.Sprintf("%s/%d", x.Without(b).Key(), rhs)] {
							minimal = false
						}
					}
					// g3 never grows as the LHS grows, so a valid
					// deeper subset makes an immediate subset valid too.
					if minimal {
						wantAFDs = append(wantAFDs, hyfd.ApproximateFD{Lhs: x, Rhs: rhs, Error: g3})
					}
				}
			}
			sortSets(wantUCCs)
			sort.SliceStable(wantAFDs, func(i, j int) bool {
				a, b := wantAFDs[i], wantAFDs[j]
				if a.Rhs != b.Rhs {
					return a.Rhs < b.Rhs
				}
				if ca, cb := a.Lhs.Cardinality(), b.Lhs.Cardinality(); ca != cb {
					return ca < cb
				}
				return bitset.CompareKeys(a.Lhs, b.Lhs) < 0
			})
			opts := hyfd.Options{NullSemantics: ns, MaxLhsSize: maxLhs, Threads: 1}
			res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Mode: hyfd.ModeUCC, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.UCCs) != fmt.Sprint(wantUCCs) {
				t.Fatalf("%v, bound %d: UCCs %v, want %v", ns, maxLhs, res.UCCs, wantUCCs)
			}
			res, err = hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Mode: hyfd.ModeAFD, MaxError: maxError, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(renderAFDs(res.AFDs), renderAFDs(wantAFDs)) {
				t.Fatalf("%v, bound %d, ε %v: AFDs\n%s\nwant\n%s", ns, maxLhs, maxError, renderAFDs(res.AFDs), renderAFDs(wantAFDs))
			}
		}
	})
}

// sortSets orders attribute sets canonically: by cardinality, then by key.
func sortSets(sets []bitset.Set) {
	sort.Slice(sets, func(i, j int) bool {
		if ci, cj := sets[i].Cardinality(), sets[j].Cardinality(); ci != cj {
			return ci < cj
		}
		return bitset.CompareKeys(sets[i], sets[j]) < 0
	})
}
