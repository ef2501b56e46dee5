package rank

import (
	"context"
	"sort"
	"strconv"
	"testing"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/relation"
)

// testScorer builds a scorer with fixed per-attribute distinct counts.
func testScorer(distinct ...int) *Scorer {
	return &Scorer{distinct: distinct}
}

// lhs is shorthand for a bitset over n attributes with the given members.
func lhs(n int, members ...int) bitset.Set {
	return bitset.FromIndices(n, members...)
}

func TestScore(t *testing.T) {
	// Attributes: 0 has 2 classes, 1 has 4, 2 is constant (1), 3 is a key (8).
	s := testScorer(2, 4, 1, 8)
	cases := []struct {
		lhs  bitset.Set
		want float64
	}{
		{lhs(4), 1},                 // empty determinant: d=1, card clamps to 1
		{lhs(4, 2), 1},              // constant column: 1/(1*1)
		{lhs(4, 0), 1.0 / 2},        // 1/(1*2)
		{lhs(4, 1), 1.0 / 4},        // 1/(1*4)
		{lhs(4, 0, 1), 1.0 / 8},     // 1/(2*max(2,4))
		{lhs(4, 0, 3), 1.0 / 16},    // 1/(2*8)
		{lhs(4, 0, 1, 3), 1.0 / 24}, // 1/(3*8)
	}
	for _, c := range cases {
		if got := s.Score(c.lhs); got != c.want {
			t.Errorf("Score(%v) = %g, want %g", c.lhs, got, c.want)
		}
	}
}

// TestScoreMonotone: the cut bound's correctness rests on the score never
// increasing under LHS specialization. Checked exhaustively over every
// subset pair X ⊂ X∪{a}.
func TestScoreMonotone(t *testing.T) {
	s := testScorer(1, 2, 3, 5, 8)
	const n = 5
	for mask := 0; mask < 1<<n; mask++ {
		x := bitset.New(n)
		for a := 0; a < n; a++ {
			if mask&(1<<a) != 0 {
				x.Set(a)
			}
		}
		base := s.Score(x)
		for a := 0; a < n; a++ {
			if x.Test(a) {
				continue
			}
			if spec := s.Score(x.With(a)); spec > base {
				t.Fatalf("Score(%v + attr %d) = %g > Score(%v) = %g: not monotone",
					x, a, spec, x, base)
			}
		}
	}
}

// TestNewScorer: the scorer's distinct counts come from the prepared PLIs'
// equivalence-class counts (singletons included).
func TestNewScorer(t *testing.T) {
	rel := relation.New("scorer", []string{"const", "half", "key"})
	for i := 0; i < 6; i++ {
		rel.AppendRow([]string{"k", strconv.Itoa(i % 2), strconv.Itoa(i)})
	}
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScorer(ds.Index())
	for a, want := range []float64{1, 1.0 / 2, 1.0 / 6} {
		if got := s.Score(lhs(3, a)); got != want {
			t.Errorf("Score({%d}) = %g, want %g", a, got, want)
		}
	}
}

// rankFixture returns scored FDs with deliberate score ties so the
// tie-break chain (Rhs, cardinality, key) is exercised.
func rankFixture() []FD {
	const n = 4
	return []FD{
		{FD: fd.FD{Lhs: lhs(n, 1), Rhs: 0}, Score: 0.5},
		{FD: fd.FD{Lhs: lhs(n, 0), Rhs: 1}, Score: 0.5}, // ties on score, loses on Rhs
		{FD: fd.FD{Lhs: lhs(n, 0, 2), Rhs: 3}, Score: 0.25},
		{FD: fd.FD{Lhs: lhs(n, 3), Rhs: 2}, Score: 0.25},    // ties, wins on Rhs
		{FD: fd.FD{Lhs: lhs(n, 1, 2), Rhs: 3}, Score: 0.25}, // ties fully, loses on LHS key vs {0,2}
	}
}

// TestLessTotalOrder: Less must be a strict total order — irreflexive,
// asymmetric, transitive, and total over distinct entries. Checked
// exhaustively over the fixture.
func TestLessTotalOrder(t *testing.T) {
	fds := rankFixture()
	same := func(a, b FD) bool {
		return a.FD.Rhs == b.FD.Rhs && a.FD.Lhs.Equal(b.FD.Lhs)
	}
	for i, a := range fds {
		if Less(a, a) {
			t.Errorf("Less(%d, %d): not irreflexive", i, i)
		}
		for j, b := range fds {
			if i == j {
				continue
			}
			if Less(a, b) && Less(b, a) {
				t.Errorf("Less(%d, %d): not asymmetric", i, j)
			}
			if !same(a, b) && !Less(a, b) && !Less(b, a) {
				t.Errorf("Less(%d, %d): distinct entries incomparable", i, j)
			}
			for k, c := range fds {
				if Less(a, b) && Less(b, c) && !Less(a, c) {
					t.Errorf("Less(%d,%d,%d): not transitive", i, j, k)
				}
			}
		}
	}
}

// TestRank: the offline oracle orders by Less, assigns 1-based ranks, and
// applies the k budget and score floor as prefix cuts.
func TestRank(t *testing.T) {
	s := testScorer(2, 2, 4, 4)
	var cover []fd.FD
	for _, e := range rankFixture() {
		cover = append(cover, e.FD)
	}

	all := Rank(cover, s, 0, 0)
	if len(all) != len(cover) {
		t.Fatalf("Rank all: %d entries, want %d", len(all), len(cover))
	}
	for i, e := range all {
		if e.Rank != i+1 {
			t.Fatalf("entry %d has rank %d", i, e.Rank)
		}
		if i > 0 && Less(e, all[i-1]) {
			t.Fatalf("entries %d,%d out of order", i-1, i)
		}
	}

	if top2 := Rank(cover, s, 2, 0); len(top2) != 2 ||
		!top2[0].FD.Lhs.Equal(all[0].FD.Lhs) || top2[0].FD.Rhs != all[0].FD.Rhs ||
		!top2[1].FD.Lhs.Equal(all[1].FD.Lhs) || top2[1].FD.Rhs != all[1].FD.Rhs {
		t.Fatalf("Rank k=2 is not the 2-prefix of the full ranking: %v", top2)
	}

	floor := Rank(cover, s, 0, 0.3)
	for _, e := range floor {
		if e.Score < 0.3 {
			t.Fatalf("score floor leaked %g", e.Score)
		}
	}
	if len(floor) == len(all) {
		t.Fatal("score floor cut nothing; fixture broken")
	}
}

// TestTrackerStrictBound: a validated FD tying the frontier bound must NOT
// stabilize — a frontier candidate with the same score can still validate
// and precede it in the canonical tie-break. The fixture makes that
// concrete: {A}→1 (score 1/2) ties the pending {K1,K2}→0 (two constant
// columns, score 1/2), which outranks it on Rhs once validated.
func TestTrackerStrictBound(t *testing.T) {
	// Attributes: 0:A (2 classes), 1:K1 (constant), 2:K2 (constant).
	s := testScorer(2, 1, 1)
	tree := fdtree.New(3)
	tree.Add(lhs(3, 0), 1)    // level-1 candidate {A}→1
	tree.Add(lhs(3, 1, 2), 0) // level-2 candidate {K1,K2}→0

	tr := NewTracker(s, tree, 2, 0)
	if got := tr.Bound(); got != 1 {
		t.Fatalf("initial bound %g, want 1", got)
	}

	// Level 1 validates {A}→1; the candidate leaves the tree.
	tree.Remove(lhs(3, 0), 1)
	stable, cont := tr.CompleteLevel(1, []fd.FD{{Lhs: lhs(3, 0), Rhs: 1}})
	if len(stable) != 0 {
		t.Fatalf("tying FD stabilized early: %v", stable)
	}
	if !cont {
		t.Fatal("tracker stopped with the ranking unstable")
	}
	if got := tr.Bound(); got != 0.5 {
		t.Fatalf("bound after level 1 = %g, want 0.5", got)
	}

	// Level 2 validates {K1,K2}→0; the frontier is now empty.
	tree.Remove(lhs(3, 1, 2), 0)
	stable, cont = tr.CompleteLevel(2, []fd.FD{{Lhs: lhs(3, 1, 2), Rhs: 0}})
	if cont {
		t.Fatal("tracker kept going after top-k stabilized")
	}
	if len(stable) != 2 {
		t.Fatalf("got %d newly stable, want 2", len(stable))
	}
	// The late FD outranks the earlier one: equal score, smaller Rhs.
	if stable[0].FD.Rhs != 0 || stable[0].Rank != 1 || stable[1].FD.Rhs != 1 || stable[1].Rank != 2 {
		t.Fatalf("wrong final order: %+v", stable)
	}
	if fin := tr.Finalize(); len(fin) != 2 || fin[0].Rank != 1 || fin[0].FD.Rhs != 0 {
		t.Fatalf("Finalize disagrees with the emitted stream: %+v", fin)
	}
}

// TestTrackerEmitsAboveBound: an FD scoring strictly above the frontier
// bound is emitted immediately with its final rank, before discovery ends.
func TestTrackerEmitsAboveBound(t *testing.T) {
	// 0:konst (1 class), 1:B (4 classes), 2:C (8 classes).
	s := testScorer(1, 4, 8)
	tree := fdtree.New(3)
	tree.Add(lhs(3, 0), 1)    // {konst}→1, score 1
	tree.Add(lhs(3, 1), 2)    // {B}→2, score 1/4
	tree.Add(lhs(3, 1, 2), 0) // level 2, score 1/16

	tr := NewTracker(s, tree, 0, 0)
	tree.Remove(lhs(3, 0), 1)
	tree.Remove(lhs(3, 1), 2)
	stable, cont := tr.CompleteLevel(1, []fd.FD{
		{Lhs: lhs(3, 0), Rhs: 1},
		{Lhs: lhs(3, 1), Rhs: 2},
	})
	// Frontier bound is 1/16: both level-1 results clear it and stream out.
	if !cont || len(stable) != 2 {
		t.Fatalf("stable=%v cont=%v, want 2 results and continue", stable, cont)
	}
	if stable[0].Score != 1 || stable[0].Rank != 1 || stable[1].Score != 0.25 || stable[1].Rank != 2 {
		t.Fatalf("wrong emitted prefix: %+v", stable)
	}
	if tr.Stable() != 2 {
		t.Fatalf("Stable() = %d, want 2", tr.Stable())
	}

	tree.Remove(lhs(3, 1, 2), 0)
	stable, _ = tr.CompleteLevel(2, []fd.FD{{Lhs: lhs(3, 1, 2), Rhs: 0}})
	if len(stable) != 1 || stable[0].Rank != 3 {
		t.Fatalf("level-2 result not appended at rank 3: %+v", stable)
	}
	if tr.Bound() != 0 {
		t.Fatalf("empty frontier bound = %g, want 0", tr.Bound())
	}
}

// TestTrackerMinScoreStops: once the bound falls below the score floor no
// remaining candidate can qualify, so the tracker stops discovery.
func TestTrackerMinScoreStops(t *testing.T) {
	s := testScorer(2, 8)
	tree := fdtree.New(2)
	tree.Add(lhs(2, 0), 1) // score 1/2
	tree.Add(lhs(2, 1), 0) // score 1/8 — below the floor

	tr := NewTracker(s, tree, 0, 0.25)
	tree.Remove(lhs(2, 0), 1)
	stable, cont := tr.CompleteLevel(1, []fd.FD{{Lhs: lhs(2, 0), Rhs: 1}})
	if cont {
		t.Fatal("tracker kept going with bound below the score floor")
	}
	if len(stable) != 1 || stable[0].Score != 0.5 {
		t.Fatalf("stable = %+v, want the one qualifying FD", stable)
	}
	if fin := tr.Finalize(); len(fin) != 1 {
		t.Fatalf("Finalize leaked below-floor results: %+v", fin)
	}
}

// TestTrackerPrefixNeverReorders: across randomized validation interleavings
// the emitted stream must be a prefix of the final ranking in order — the
// documented "superset extension, never a reordering" contract. The
// deterministic fixture shuffles via sort keys instead of the banned RNG.
func TestTrackerPrefixNeverReorders(t *testing.T) {
	s := testScorer(1, 2, 3, 4, 6, 8)
	const n = 6
	// A spread of candidates over three levels.
	type cand struct {
		lhs bitset.Set
		rhs int
	}
	var levels = map[int][]cand{
		1: {{lhs(n, 0), 1}, {lhs(n, 1), 0}, {lhs(n, 2), 3}},
		2: {{lhs(n, 1, 2), 4}, {lhs(n, 3, 4), 5}},
		3: {{lhs(n, 2, 4, 5), 0}},
	}
	tree := fdtree.New(n)
	for _, cs := range levels {
		for _, c := range cs {
			tree.Add(c.lhs, c.rhs)
		}
	}
	tr := NewTracker(s, tree, 0, 0)
	var emitted []FD
	for level := 1; level <= 3; level++ {
		var valid []fd.FD
		for _, c := range levels[level] {
			tree.Remove(c.lhs, c.rhs)
			valid = append(valid, fd.FD{Lhs: c.lhs, Rhs: c.rhs})
		}
		stable, _ := tr.CompleteLevel(level, valid)
		emitted = append(emitted, stable...)
	}
	final := tr.Finalize()
	if len(final) != 6 {
		t.Fatalf("Finalize returned %d of 6 validated FDs", len(final))
	}
	if !sort.SliceIsSorted(final, func(i, j int) bool { return Less(final[i], final[j]) }) {
		t.Fatal("final ranking not in Less order")
	}
	for i, e := range emitted {
		f := final[i]
		if e.Rank != i+1 || f.Rank != i+1 || e.FD.Rhs != f.FD.Rhs || !e.FD.Lhs.Equal(f.FD.Lhs) {
			t.Fatalf("emitted[%d] = %+v disagrees with final[%d] = %+v", i, e, i, f)
		}
	}
}
