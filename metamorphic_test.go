package hyfd_test

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"hyfd"
	"hyfd/internal/fd"
	"hyfd/internal/rank"
)

// Metamorphic properties of FD discovery: the discovered dependency set is
// a function of the relation's *content*, so transformations that preserve
// the content semantics must preserve the result. Each property is checked
// for HyFD and two structurally different baselines (lattice-traversing
// TANE, negative-cover-based FDEP) under both null semantics.

// metamorphicAlgorithms are the implementations the properties run against.
var metamorphicAlgorithms = []string{hyfd.AlgorithmHyFD, hyfd.AlgorithmTane, hyfd.AlgorithmFdep}

// metamorphicRelation builds a small mixed relation: a key-ish column, a
// constant column, correlated categorical columns, and sprinkled nulls —
// enough structure that the FD set is non-trivial in both directions.
func metamorphicRelation(rows int, seed int64) *hyfd.Relation {
	r := rand.New(rand.NewSource(seed))
	rel := hyfd.NewRelation("meta", []string{"id", "const", "cat", "dep", "noise"})
	for i := 0; i < rows; i++ {
		cat := r.Intn(4)
		row := []string{
			strconv.Itoa(i % (rows - 2)), // near-unique
			"k",
			strconv.Itoa(cat),
			strconv.Itoa(cat * 2), // functionally determined by cat
			strconv.Itoa(r.Intn(3)),
		}
		if r.Intn(8) == 0 {
			row[4] = hyfd.Null
		}
		rel.AppendRow(row)
	}
	return rel
}

// discoverSet runs one algorithm and returns its FD set, failing the test
// on error.
func discoverSet(t *testing.T, alg string, rel *hyfd.Relation, ns hyfd.NullSemantics) *hyfd.FDSet {
	t.Helper()
	res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: alg, Options: hyfd.Options{NullSemantics: ns, Threads: 1}})
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return res.Set
}

// forEachCase runs fn for every algorithm × null-semantics combination.
func forEachCase(t *testing.T, fn func(t *testing.T, alg string, ns hyfd.NullSemantics)) {
	for _, alg := range metamorphicAlgorithms {
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			alg, ns := alg, ns
			name := alg + "/ns=" + strconv.Itoa(int(ns))
			t.Run(name, func(t *testing.T) { fn(t, alg, ns) })
		}
	}
}

// TestMetamorphicRowShuffleInvariance: FDs are defined over record *pairs*,
// so permuting the rows must not change the discovered set.
func TestMetamorphicRowShuffleInvariance(t *testing.T) {
	rel := metamorphicRelation(60, 101)
	shuffled := hyfd.NewRelation(rel.Name, rel.Columns)
	perm := rand.New(rand.NewSource(202)).Perm(rel.NumRows())
	for _, i := range perm {
		shuffled.AppendRow(rel.Rows[i])
	}
	forEachCase(t, func(t *testing.T, alg string, ns hyfd.NullSemantics) {
		base := discoverSet(t, alg, rel, ns)
		got := discoverSet(t, alg, shuffled, ns)
		if !got.Equal(base) {
			t.Fatalf("row shuffle changed the FD set:\nmissing: %v\nextra: %v",
				base.Diff(got), got.Diff(base))
		}
	})
}

// TestMetamorphicRowDuplicationInvariance: duplicating existing rows adds
// only reflexive pairs and pairs equivalent to existing ones, so the FD set
// must not change.
func TestMetamorphicRowDuplicationInvariance(t *testing.T) {
	rel := metamorphicRelation(50, 303)
	dup := hyfd.NewRelation(rel.Name, rel.Columns)
	r := rand.New(rand.NewSource(404))
	for _, row := range rel.Rows {
		dup.AppendRow(row)
		if r.Intn(3) == 0 {
			dup.AppendRow(row)
		}
	}
	dup.AppendRow(rel.Rows[0]) // and one guaranteed duplicate
	forEachCase(t, func(t *testing.T, alg string, ns hyfd.NullSemantics) {
		base := discoverSet(t, alg, rel, ns)
		got := discoverSet(t, alg, dup, ns)
		if !got.Equal(base) {
			t.Fatalf("row duplication changed the FD set:\nmissing: %v\nextra: %v",
				base.Diff(got), got.Diff(base))
		}
	})
}

// TestMetamorphicColumnPermutationConsistency: permuting the columns must
// permute the discovered FDs' attribute indices and nothing else.
func TestMetamorphicColumnPermutationConsistency(t *testing.T) {
	rel := metamorphicRelation(60, 505)
	// perm[old] = new attribute position.
	perm := rand.New(rand.NewSource(606)).Perm(rel.NumCols())
	cols := make([]string, rel.NumCols())
	for old, new_ := range perm {
		cols[new_] = rel.Columns[old]
	}
	permuted := hyfd.NewRelation(rel.Name, cols)
	for _, row := range rel.Rows {
		prow := make([]string, len(row))
		for old, new_ := range perm {
			prow[new_] = row[old]
		}
		permuted.AppendRow(prow)
	}
	forEachCase(t, func(t *testing.T, alg string, ns hyfd.NullSemantics) {
		base := discoverSet(t, alg, rel, ns)
		// Map the base set through the permutation.
		want := fd.NewSet(rel.NumCols())
		for _, f := range base.All() {
			lhs := hyfd.NewAttrSet(rel.NumCols())
			f.Lhs.ForEach(func(a int) bool {
				lhs.Set(perm[a])
				return true
			})
			want.Add(hyfd.FD{Lhs: lhs, Rhs: perm[f.Rhs]})
		}
		got := discoverSet(t, alg, permuted, ns)
		if !got.Equal(want) {
			t.Fatalf("column permutation inconsistent:\nmissing: %v\nextra: %v",
				want.Diff(got), got.Diff(want))
		}
	})
}

// --- ranked top-k metamorphic properties ---
//
// The ranked mode's score is a function of the per-attribute
// equivalence-class counts, so content-preserving transformations must
// preserve the ranked list exactly — same FDs, same scores, same order.

// rankedList runs a ranked discovery and returns its result list.
func rankedList(t *testing.T, rel *hyfd.Relation, ns hyfd.NullSemantics, k int) []hyfd.RankedFD {
	t.Helper()
	res, err := hyfd.Run(context.Background(), hyfd.Request{
		Relation: rel,
		Mode:     hyfd.ModeRanked,
		TopK:     k,
		Options:  hyfd.Options{NullSemantics: ns, Threads: 1},
	})
	if err != nil {
		t.Fatalf("ranked k=%d: %v", k, err)
	}
	return res.Ranked
}

// requireSameRanking fails unless the two ranked lists agree entry by entry
// on rank, score, and FD.
func requireSameRanking(t *testing.T, got, want []hyfd.RankedFD, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranked results, want %d\ngot: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Rank != w.Rank || g.Score != w.Score || g.FD.Rhs != w.FD.Rhs || !g.FD.Lhs.Equal(w.FD.Lhs) {
			t.Fatalf("%s: rank %d differs:\ngot:  %+v\nwant: %+v", label, i+1, g, w)
		}
	}
}

// forEachNullSemantics runs fn under both null semantics.
func forEachNullSemantics(t *testing.T, fn func(t *testing.T, ns hyfd.NullSemantics)) {
	for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
		ns := ns
		t.Run("ns="+strconv.Itoa(int(ns)), func(t *testing.T) { fn(t, ns) })
	}
}

// TestMetamorphicRankedRowShuffleInvariance: scores depend on equivalence
// classes, never on row order, so permuting the rows must leave the ranked
// list — entries, scores, and order — unchanged.
func TestMetamorphicRankedRowShuffleInvariance(t *testing.T) {
	rel := metamorphicRelation(60, 101)
	shuffled := hyfd.NewRelation(rel.Name, rel.Columns)
	perm := rand.New(rand.NewSource(202)).Perm(rel.NumRows())
	for _, i := range perm {
		shuffled.AppendRow(rel.Rows[i])
	}
	forEachNullSemantics(t, func(t *testing.T, ns hyfd.NullSemantics) {
		for _, k := range []int{5, 0} {
			requireSameRanking(t, rankedList(t, shuffled, ns, k), rankedList(t, rel, ns, k),
				"row shuffle k="+strconv.Itoa(k))
		}
	})
}

// TestMetamorphicRankedRowDuplicationInvariance: duplicating rows of a
// null-free relation preserves both the FD set and every attribute's
// distinct-value count, so the ranked list must not change. Null-free is
// essential: under ⊥≠⊥ a duplicated null is a *fresh* equivalence class, so
// duplication legitimately changes scores (and can invalidate FDs) there.
func TestMetamorphicRankedRowDuplicationInvariance(t *testing.T) {
	rel := metamorphicRelation(50, 303)
	for _, row := range rel.Rows {
		if row[4] == hyfd.Null {
			row[4] = "nn" // strip nulls: see the doc comment
		}
	}
	dup := hyfd.NewRelation(rel.Name, rel.Columns)
	r := rand.New(rand.NewSource(404))
	for _, row := range rel.Rows {
		dup.AppendRow(row)
		if r.Intn(3) == 0 {
			dup.AppendRow(row)
		}
	}
	dup.AppendRow(rel.Rows[0]) // and one guaranteed duplicate
	forEachNullSemantics(t, func(t *testing.T, ns hyfd.NullSemantics) {
		for _, k := range []int{5, 0} {
			requireSameRanking(t, rankedList(t, dup, ns, k), rankedList(t, rel, ns, k),
				"row duplication k="+strconv.Itoa(k))
		}
	})
}

// --- incremental maintenance metamorphic properties ---
//
// The maintained cover is a function of the snapshot's *content*: any two
// delta sequences leading to the same row multiset must maintain
// byte-identical covers.

// maintainChain applies the deltas in order through ModeIncremental, starting
// from a cold Prepare + Discover of rel, and returns the final maintained
// cover.
func maintainChain(t *testing.T, rel *hyfd.Relation, deltas []hyfd.Delta, ns hyfd.NullSemantics, threads int) *hyfd.FDSet {
	t.Helper()
	ctx := context.Background()
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{NullSemantics: ns, Threads: threads})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	base, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{NullSemantics: ns, Threads: threads}})
	if err != nil {
		t.Fatalf("base discover: %v", err)
	}
	set := base.Set
	for i := range deltas {
		res, err := hyfd.Run(ctx, hyfd.Request{
			Dataset: ds,
			Mode:    hyfd.ModeIncremental,
			Delta:   &deltas[i],
			Base:    set,
			Options: hyfd.Options{NullSemantics: ns, Threads: threads},
		})
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		ds, set = res.Dataset, res.Set
	}
	return set
}

// metamorphicInsertRows fabricates arity-5 rows shaped like
// metamorphicRelation's, with values outside the base's id range so the
// batch genuinely perturbs the near-unique column.
func metamorphicInsertRows(n int, seed int64) []hyfd.Row {
	r := rand.New(rand.NewSource(seed))
	rows := make([]hyfd.Row, 0, n)
	for i := 0; i < n; i++ {
		cat := r.Intn(4)
		rows = append(rows, hyfd.Row{
			"x" + strconv.Itoa(i), "k", strconv.Itoa(cat), strconv.Itoa(cat * 2), strconv.Itoa(r.Intn(3)),
		})
	}
	return rows
}

// TestMetamorphicIncrementalRoundTrip: inserting a batch and then deleting
// the same rows (by value) restores the snapshot's row multiset, so the
// maintained cover must come back byte-identical to the base cover.
func TestMetamorphicIncrementalRoundTrip(t *testing.T) {
	rel := metamorphicRelation(50, 707)
	ins := metamorphicInsertRows(6, 808)
	forEachNullSemantics(t, func(t *testing.T, ns hyfd.NullSemantics) {
		base, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{NullSemantics: ns, Threads: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			got := maintainChain(t, rel, []hyfd.Delta{
				{Inserts: ins},
				{Deletes: ins},
			}, ns, threads)
			if got.String() != base.Set.String() {
				t.Fatalf("threads=%d: insert-then-delete round trip changed the cover:\nmissing: %v\nextra: %v",
					threads, base.Set.Diff(got), got.Diff(base.Set))
			}
		}
	})
}

// TestMetamorphicIncrementalBatchOrderInvariance: one combined batch, two
// single-row batches, and the same two batches in reverse order all reach the
// same row multiset, so the maintained covers must be byte-identical — and
// identical to a cold discovery over the final content.
func TestMetamorphicIncrementalBatchOrderInvariance(t *testing.T) {
	rel := metamorphicRelation(50, 909)
	ins := metamorphicInsertRows(4, 1010)
	a, b := ins[:2], ins[2:]
	final := hyfd.NewRelation(rel.Name, rel.Columns)
	for _, row := range rel.Rows {
		final.AppendRow(row)
	}
	for _, row := range ins {
		final.AppendRow(row)
	}
	forEachNullSemantics(t, func(t *testing.T, ns hyfd.NullSemantics) {
		cold, err := hyfd.Run(context.Background(), hyfd.Request{Relation: final, Options: hyfd.Options{NullSemantics: ns, Threads: 1}})
		if err != nil {
			t.Fatal(err)
		}
		batchings := [][]hyfd.Delta{
			{{Inserts: ins}},
			{{Inserts: a}, {Inserts: b}},
			{{Inserts: b}, {Inserts: a}},
		}
		for i, deltas := range batchings {
			got := maintainChain(t, rel, deltas, ns, 1)
			if got.String() != cold.Set.String() {
				t.Fatalf("batching %d diverges from cold discovery over the final content:\nmissing: %v\nextra: %v",
					i, cold.Set.Diff(got), got.Diff(cold.Set))
			}
		}
	})
}

// TestMetamorphicRankedColumnPermutationConsistency: permuting columns
// relabels attributes, so the ranked result must be the base result mapped
// through the permutation and re-sorted — scores are index-free, but the
// deterministic tie-break (Rhs, LHS key) follows the new labels. The full
// ranking (k=0) is compared so a tie crossing the k boundary cannot make
// the prefixes legitimately diverge.
func TestMetamorphicRankedColumnPermutationConsistency(t *testing.T) {
	rel := metamorphicRelation(60, 505)
	// perm[old] = new attribute position.
	perm := rand.New(rand.NewSource(606)).Perm(rel.NumCols())
	cols := make([]string, rel.NumCols())
	for old, new_ := range perm {
		cols[new_] = rel.Columns[old]
	}
	permuted := hyfd.NewRelation(rel.Name, cols)
	for _, row := range rel.Rows {
		prow := make([]string, len(row))
		for old, new_ := range perm {
			prow[new_] = row[old]
		}
		permuted.AppendRow(prow)
	}
	forEachNullSemantics(t, func(t *testing.T, ns hyfd.NullSemantics) {
		base := rankedList(t, rel, ns, 0)
		want := make([]hyfd.RankedFD, 0, len(base))
		for _, e := range base {
			lhs := hyfd.NewAttrSet(rel.NumCols())
			e.FD.Lhs.ForEach(func(a int) bool {
				lhs.Set(perm[a])
				return true
			})
			want = append(want, hyfd.RankedFD{FD: hyfd.FD{Lhs: lhs, Rhs: perm[e.FD.Rhs]}, Score: e.Score})
		}
		sort.Slice(want, func(i, j int) bool { return rank.Less(want[i], want[j]) })
		for i := range want {
			want[i].Rank = i + 1
		}
		requireSameRanking(t, rankedList(t, permuted, ns, 0), want, "column permutation")
	})
}
