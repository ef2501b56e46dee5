package validator

import (
	"context"
	"slices"
	"testing"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/inductor"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
	"hyfd/internal/trace"
)

// fuzzRelation shapes a small relation from fuzz bytes: the first two
// bytes pick the dimensions (1–6 columns, 0–23 rows), the rest fill cells
// row-major from a five-symbol alphabet, four letters plus NULL, so nulls,
// constant columns and unique columns are all reachable. Missing bytes
// read as zero.
func fuzzRelation(data []byte) *relation.Relation {
	if len(data) < 2 {
		return nil
	}
	cols := 1 + int(data[0])%6
	rows := int(data[1]) % 24
	data = data[2:]
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	rel := relation.New("fuzz", names)
	cell := 0
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			var b byte
			if cell < len(data) {
				b = data[cell]
			}
			cell++
			if b%7 == 6 {
				row[j] = relation.Null
			} else {
				row[j] = string(rune('a' + b%4))
			}
		}
		rel.AppendRow(row)
	}
	return rel
}

// fuzzAgreeSets returns the agree sets of a fuzz-chosen subset of record
// pairs: bit k of mask picks the k-th pair (a, b), a < b, in record order;
// missing bytes pick none.
func fuzzAgreeSets(rel *relation.Relation, ns relation.NullSemantics, mask []byte) []bitset.Set {
	var sets []bitset.Set
	k := 0
	for a := range rel.Rows {
		for b := a + 1; b < len(rel.Rows); b, k = b+1, k+1 {
			if k/8 >= len(mask) || mask[k/8]>>(k%8)&1 == 0 {
				continue
			}
			agree := bitset.New(rel.NumCols())
			for c, v := range rel.Rows[a] {
				if v == rel.Rows[b][c] && (v != relation.Null || ns == relation.NullEqualsNull) {
					agree.Set(c)
				}
			}
			sets = append(sets, agree)
		}
	}
	return sets
}

// pathRun is everything one validation path reports: per Run call its
// Result and Validations, per level the ValidationLevel event and the
// valid FDs, and at the end the tree's FDs.
type pathRun struct {
	results     []Result
	validations []int64
	events      []trace.ValidationLevel
	valid       [][]fd.FD
	fds         *fd.Set
}

// runPath validates the tree the agree sets induce to completion, with
// non-exhaustive runs that resume after every phase switch, through the
// prefix stack or, with direct, through the direct check alone.
func runPath(t *testing.T, ix *pli.Index, agreeSets []bitset.Set, threshold float64, threads int, direct bool) pathRun {
	t.Helper()
	ind := inductor.New(ix.NumCols)
	ind.Update(agreeSets)
	var out pathRun
	col := &trace.Collector{}
	v := New(ix, ind.Tree(), WithThreads(threads), WithInvalidThreshold(threshold), WithObserver(col),
		WithLevelFunc(func(_ int, valid []fd.FD) bool {
			out.valid = append(out.valid, valid)
			return true
		}))
	v.direct = direct
	for {
		res, err := v.Run(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		out.results = append(out.results, *res)
		out.validations = append(out.validations, v.Validations)
		if res.Done {
			break
		}
	}
	for _, e := range col.Events() {
		out.events = append(out.events, e.(trace.ValidationLevel))
	}
	out.fds = ind.Tree().FDs()
	return out
}

// FuzzValidatorStack is the per-node differential oracle of Phase 2: the
// prefix-stack validator must report exactly what the direct check of
// every node reports, run by run and level by level: each Result
// (Suggestions in order, Done, counts), Validations, every ValidationLevel
// field but Duration and the stack's own Refinements and Fallbacks, and
// the valid FDs. Trees are induced from a fuzzed subset of agree sets, as
// in FuzzValidatorDifferential, and validated with a fuzzed threshold, so
// runs switch back and resume; both null semantics, at threads 1 and 3.
func FuzzValidatorStack(f *testing.F) {
	// Five columns, eight rows with nulls, half the pairs induced: one
	// level-1 node has a violation, so the direct check re-validates it.
	f.Add([]byte{4, 8, 0, 1, 2, 6, 1, 13, 2, 1, 0, 255, 20, 4, 3, 3, 1, 0, 2, 5, 9, 1}, []byte{0x55, 0x55, 0x55, 0x55}, uint8(1))
	// A = aabb, B = abcd, C = abab, from ∅ → A: B is unique, so {B}'s
	// partition is its empty PLI and B → A, B → C hold unchecked; level 2
	// holds the single node {A, C} → B, whose refined partition is empty.
	f.Add([]byte{2, 4, 0, 0, 0, 0, 1, 1, 1, 2, 0, 1, 3, 1}, []byte{}, uint8(0))
	// A = aabb, B = ⊥⊥cd, C = A, from ∅ → A: under ⊥ ≠ ⊥ every B cell is
	// a singleton, so the cluster {0, 1} of A violates A → B although both
	// of its records carry the same Singleton id, while A → C holds.
	f.Add([]byte{2, 4, 0, 6, 0, 0, 6, 0, 1, 2, 1, 1, 3, 1}, []byte{}, uint8(0))
	// Six columns, twenty rows, from ∅ → A with a threshold of 1: the
	// levels whose invalid candidates outnumber the valid ones switch back
	// and resume, and 38 nodes on levels 1–4 fall back, between nodes
	// whose partitions share prefixes.
	f.Add([]byte{5, 20, 0, 1, 2, 3, 0, 1, 1, 2, 3, 0, 2, 1, 6, 3, 0, 0, 1, 1, 2, 2, 3, 3, 5, 4, 0, 1, 2, 3,
		9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 0, 1, 2, 0, 0, 0, 1, 1, 1}, []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data, mask []byte, level uint8) {
		rel := fuzzRelation(data)
		if rel == nil {
			return
		}
		threshold := []float64{DefaultInvalidThreshold, 0, 1}[level%3]
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			agreeSets := fuzzAgreeSets(rel, ns, mask)
			ix := pli.NewIndex(rel, ns)
			for _, threads := range []int{1, 3} {
				want := runPath(t, ix, agreeSets, threshold, threads, true)
				got := runPath(t, ix, agreeSets, threshold, threads, false)
				comparePaths(t, ns, threads, got, want)
			}
		}
	})
}

// comparePaths fails the test where the stack path got differs from the
// direct path want.
func comparePaths(t *testing.T, ns relation.NullSemantics, threads int, got, want pathRun) {
	t.Helper()
	if len(got.results) != len(want.results) {
		t.Fatalf("ns=%v threads=%d: %d runs, direct check %d", ns, threads, len(got.results), len(want.results))
	}
	for i, g := range got.results {
		w := want.results[i]
		if g.Done != w.Done || g.Stopped != w.Stopped || g.ValidFds != w.ValidFds || g.InvalidFds != w.InvalidFds ||
			!slices.Equal(g.Suggestions, w.Suggestions) || got.validations[i] != want.validations[i] {
			t.Fatalf("ns=%v threads=%d run %d: %+v (validations %d), direct check %+v (validations %d)",
				ns, threads, i, g, got.validations[i], w, want.validations[i])
		}
	}
	if len(got.events) != len(want.events) || len(got.valid) != len(want.valid) {
		t.Fatalf("ns=%v threads=%d: %d levels, direct check %d", ns, threads, len(got.events), len(want.events))
	}
	for i, g := range got.events {
		w := want.events[i]
		if w.Refinements != 0 || w.Fallbacks != 0 {
			t.Fatalf("ns=%v threads=%d: the direct check reports stack work: %+v", ns, threads, w)
		}
		// Level 0 checks ∅ → A directly and refines nothing, level 1 reads
		// the PLIs in place; above, every node with an invalid candidate
		// fell back.
		if g.Fallbacks > g.Validations || (g.Level <= 1 && g.Refinements > 0) ||
			(g.Level == 0 && g.Fallbacks > 0) || (g.Level > 0 && g.Invalid > 0 && g.Fallbacks == 0) {
			t.Fatalf("ns=%v threads=%d: refinements or fallbacks do not match the level: %+v", ns, threads, g)
		}
		g.Duration, w.Duration, g.Refinements, g.Fallbacks = 0, 0, 0, 0
		if g != w {
			t.Fatalf("ns=%v threads=%d level event %d: %+v, direct check %+v", ns, threads, i, g, w)
		}
		if !slices.EqualFunc(got.valid[i], want.valid[i], func(a, b fd.FD) bool {
			return a.Rhs == b.Rhs && a.Lhs.Equal(b.Lhs)
		}) {
			t.Fatalf("ns=%v threads=%d level %d: valid %v, direct check %v", ns, threads, g.Level, got.valid[i], want.valid[i])
		}
	}
	if !got.fds.Equal(want.fds) {
		t.Fatalf("ns=%v threads=%d: cover differs:\nmissing: %v\nextra: %v", ns, threads, want.fds.Diff(got.fds), got.fds.Diff(want.fds))
	}
}
