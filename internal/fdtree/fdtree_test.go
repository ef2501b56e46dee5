package fdtree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/invariant"
)

func TestAddContainsRemove(t *testing.T) {
	tr := New(5)
	lhs := bitset.FromIndices(5, 0, 2)
	if !tr.Add(lhs, 3) {
		t.Fatal("fresh add should be true")
	}
	if tr.Add(lhs, 3) {
		t.Fatal("duplicate add should be false")
	}
	if !tr.ContainsFd(lhs, 3) {
		t.Fatal("ContainsFd false negative")
	}
	if tr.ContainsFd(lhs, 4) || tr.ContainsFd(bitset.FromIndices(5, 0), 3) {
		t.Fatal("ContainsFd false positive")
	}
	if !tr.Remove(lhs, 3) {
		t.Fatal("Remove of present FD failed")
	}
	if tr.Remove(lhs, 3) {
		t.Fatal("Remove of absent FD succeeded")
	}
	if tr.ContainsFd(lhs, 3) {
		t.Fatal("FD survives removal")
	}
	if tr.CountFDs() != 0 {
		t.Fatalf("CountFDs = %d after removal", tr.CountFDs())
	}
	if tr.NodeCount() != 1 { // only root should remain after pruning
		t.Fatalf("NodeCount = %d, want 1", tr.NodeCount())
	}
}

func TestEmptyLhsFd(t *testing.T) {
	tr := New(3)
	empty := bitset.New(3)
	tr.Add(empty, 1)
	if !tr.ContainsFd(empty, 1) {
		t.Fatal("∅ → 1 not stored")
	}
	if !tr.FindFdOrGeneral(bitset.FromIndices(3, 0, 2), 1) {
		t.Fatal("∅ → 1 must generalize any LHS")
	}
	if !tr.Remove(empty, 1) || tr.ContainsFd(empty, 1) {
		t.Fatal("∅ → 1 removal broken")
	}
}

func TestFindFdOrGeneral(t *testing.T) {
	tr := New(6)
	tr.Add(bitset.FromIndices(6, 1, 3), 5)
	cases := []struct {
		lhs  []int
		want bool
	}{
		{[]int{1, 3}, true},       // the FD itself
		{[]int{1, 2, 3}, true},    // superset
		{[]int{0, 1, 3, 4}, true}, // superset
		{[]int{1}, false},         // proper subset
		{[]int{3}, false},
		{[]int{1, 2}, false}, // incomparable
		{[]int{}, false},
	}
	for _, c := range cases {
		got := tr.FindFdOrGeneral(bitset.FromIndices(6, c.lhs...), 5)
		if got != c.want {
			t.Fatalf("FindFdOrGeneral(%v, 5) = %v, want %v", c.lhs, got, c.want)
		}
	}
	if tr.FindFdOrGeneral(bitset.FromIndices(6, 1, 2, 3), 4) {
		t.Fatal("wrong RHS matched")
	}
	for _, rhs := range []int{-1, 6, 64} { // outside the universe, as bitset.Set.Test
		if tr.FindFdOrGeneral(bitset.FromIndices(6, 1, 3), rhs) || tr.ContainsFd(bitset.FromIndices(6, 1, 3), rhs) {
			t.Fatalf("lookup of RHS %d outside the universe matched", rhs)
		}
	}
}

func TestGetFdsAndGenerals(t *testing.T) {
	tr := New(6)
	tr.Add(bitset.FromIndices(6, 1), 5)
	tr.Add(bitset.FromIndices(6, 1, 3), 5) // non-minimal on purpose
	tr.Add(bitset.FromIndices(6, 2), 5)
	tr.Add(bitset.FromIndices(6, 4), 5) // not ⊆ query
	tr.Add(bitset.FromIndices(6, 1), 4)
	tr.Add(bitset.FromIndices(6, 3), 0) // outside the mask
	query := bitset.FromIndices(6, 1, 2, 3)
	type entry struct{ lhs, rhss []int }
	for _, c := range []struct {
		mask []int
		want []entry
	}{
		// One masked RHS: the per-RHS walk, in depth-first order.
		{[]int{5}, []entry{{[]int{1}, []int{5}}, {[]int{1, 3}, []int{5}}, {[]int{2}, []int{5}}}},
		{[]int{4}, []entry{{[]int{1}, []int{4}}}},
		// Several: each LHS once, with the masked RHSs its node marks.
		{[]int{4, 5}, []entry{{[]int{1}, []int{4, 5}}, {[]int{1, 3}, []int{5}}, {[]int{2}, []int{5}}}},
		{[]int{1, 2}, nil},
	} {
		got := tr.GetFdsAndGenerals(query, bitset.FromIndices(6, c.mask...))
		if len(got) != len(c.want) {
			t.Fatalf("mask %v: got %d generalizations %v, want %v", c.mask, len(got), got, c.want)
		}
		for i, g := range got {
			if !g.Lhs.Equal(bitset.FromIndices(6, c.want[i].lhs...)) || !g.Rhss.Equal(bitset.FromIndices(6, c.want[i].rhss...)) {
				t.Fatalf("mask %v: entry %d = %v → %v, want %v", c.mask, i, g.Lhs, g.Rhss, c.want[i])
			}
		}
	}
}

func TestClearCovered(t *testing.T) {
	tr := New(6)
	tr.Add(bitset.New(6), 0)
	tr.Add(bitset.FromIndices(6, 1, 3), 5)
	tr.Add(bitset.FromIndices(6, 2), 4)
	for _, c := range []struct {
		lhs, rhss, want []int
	}{
		{[]int{1, 2, 3}, []int{0, 1, 4, 5}, []int{1}},
		{[]int{1, 2}, []int{0, 4, 5}, []int{5}},
		{[]int{1}, []int{5}, []int{5}},
		{[]int{}, []int{0, 3}, []int{3}},
		{[]int{2}, []int{0, 4}, []int{}}, // empties the mask
	} {
		rhss := bitset.FromIndices(6, c.rhss...)
		tr.ClearCovered(bitset.FromIndices(6, c.lhs...), rhss)
		if !rhss.Equal(bitset.FromIndices(6, c.want...)) {
			t.Fatalf("ClearCovered(%v, %v) left %v, want %v", c.lhs, c.rhss, rhss, c.want)
		}
	}
}

func TestGetLevelAndChildren(t *testing.T) {
	tr := New(5)
	tr.Add(bitset.New(5), 0)
	tr.Add(bitset.FromIndices(5, 1), 2)
	tr.Add(bitset.FromIndices(5, 3), 2)
	tr.Add(bitset.FromIndices(5, 1, 3), 4)
	l0 := tr.GetLevel(0)
	if len(l0) != 1 || !l0[0].Lhs.IsEmpty() {
		t.Fatalf("level 0 = %v", l0)
	}
	l1 := tr.GetLevel(1)
	if len(l1) != 2 {
		t.Fatalf("level 1 has %d nodes", len(l1))
	}
	// The {1} node's only child is {1,3}, which keeps its RHS.
	l2 := tr.GetLevel(2)
	if len(l2) != 1 || !l2[0].Lhs.Equal(bitset.FromIndices(5, 1, 3)) {
		t.Fatalf("level 2 = %v", l2)
	}
	if !l2[0].RhsFds().Test(4) {
		t.Fatal("child rhsFds lost")
	}
}

func TestSetFds(t *testing.T) {
	tr := New(4)
	lhs := bitset.FromIndices(4, 0)
	tr.Add(lhs, 1)
	tr.Add(lhs, 2)
	nd := tr.GetLevel(1)[0]
	valid := bitset.FromIndices(4, 2)
	nd.SetFds(valid)
	if tr.ContainsFd(lhs, 1) || !tr.ContainsFd(lhs, 2) {
		t.Fatal("SetFds did not replace the marked RHSs")
	}
	// Lookups must stay correct even with stale subtree summaries.
	if tr.FindFdOrGeneral(bitset.FromIndices(4, 0, 3), 1) {
		t.Fatal("stale summary produced a false positive")
	}
}

// TestRemoveSurvivingPathAllocs pins the in-place summary repair: removing
// an FD whose path still carries another FD, and re-adding it, allocates
// nothing. SetFds copies into the node's own words as well.
func TestRemoveSurvivingPathAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the armed whole-tree check allocates")
	}
	tr := New(70)
	lhs := bitset.FromIndices(70, 0, 3, 66)
	tr.Add(lhs, 1)
	tr.Add(lhs, 68)
	tr.Add(bitset.FromIndices(70, 0, 5), 2)
	nodes := tr.NodeCount()
	if n := testing.AllocsPerRun(100, func() {
		if !tr.Remove(lhs, 68) || !tr.Add(lhs, 68) {
			t.Fatal("remove/add round trip failed")
		}
	}); n != 0 {
		t.Fatalf("Remove on a surviving path allocated %v times, want 0", n)
	}
	if tr.NodeCount() != nodes || tr.CountFDs() != 3 {
		t.Fatalf("tree changed shape: %d nodes, %d FDs", tr.NodeCount(), tr.CountFDs())
	}
	nd := tr.GetLevel(3)[0]
	valid := bitset.FromIndices(70, 1)
	if n := testing.AllocsPerRun(100, func() { nd.SetFds(valid) }); n != 0 {
		t.Fatalf("SetFds allocated %v times, want 0", n)
	}
	valid.Set(4)
	if tr.ContainsFd(lhs, 4) || tr.ContainsFd(lhs, 68) || !tr.ContainsFd(lhs, 1) {
		t.Fatal("SetFds aliased its argument or kept stale RHSs")
	}
}

func TestMaxLhsPruning(t *testing.T) {
	tr := New(6)
	tr.Add(bitset.FromIndices(6, 0), 5)
	tr.Add(bitset.FromIndices(6, 0, 1), 5)
	tr.Add(bitset.FromIndices(6, 0, 1, 2), 5)
	tr.Add(bitset.FromIndices(6, 1, 2, 3), 4)
	before := tr.CountFDs()
	if before != 4 {
		t.Fatalf("setup CountFDs = %d", before)
	}
	tr.SetMaxLhs(2)
	if tr.CountFDs() != 2 {
		t.Fatalf("after SetMaxLhs(2): CountFDs = %d, want 2", tr.CountFDs())
	}
	if tr.ContainsFd(bitset.FromIndices(6, 0, 1, 2), 5) {
		t.Fatal("deep FD survived pruning")
	}
	if !tr.ContainsFd(bitset.FromIndices(6, 0, 1), 5) {
		t.Fatal("shallow FD lost by pruning")
	}
	// New deep adds must be refused.
	if tr.Add(bitset.FromIndices(6, 1, 2, 3), 0) {
		t.Fatal("Add beyond maxLhs accepted")
	}
	if tr.MaxLhs() != 2 {
		t.Fatalf("MaxLhs = %d", tr.MaxLhs())
	}
}

func TestFDsRoundTrip(t *testing.T) {
	tr := New(5)
	want := fd.NewSet(5)
	add := func(lhs bitset.Set, rhs int) {
		tr.Add(lhs, rhs)
		want.Add(fd.FD{Lhs: lhs, Rhs: rhs})
	}
	add(bitset.New(5), 4)
	add(bitset.FromIndices(5, 0), 1)
	add(bitset.FromIndices(5, 0, 2), 3)
	add(bitset.FromIndices(5, 1, 2, 3), 0)
	got := tr.FDs()
	if !got.Equal(want) {
		t.Fatalf("FDs roundtrip:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if tr.CountFDs() != want.Size() {
		t.Fatalf("CountFDs = %d, want %d", tr.CountFDs(), want.Size())
	}
}

// randomTree returns a tree holding about k random FDs over n attributes.
func randomTree(r *rand.Rand, n, k int) *Tree {
	tr := New(n)
	for i := 0; i < k; i++ {
		lhs := bitset.New(n)
		for a := 0; a < n; a++ {
			if r.Intn(4) == 0 {
				lhs.Set(a)
			}
		}
		tr.Add(lhs, r.Intn(n))
	}
	return tr
}

// TestFDsCanonicalOrder: the extracted cover lists its FDs in the order
// of RHS, then LHS size, then LHS Key() string, and every LHS owns its
// words.
func TestFDsCanonicalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 5, 17, 70} {
		tr := randomTree(r, n, 300)
		all := tr.FDs().All()
		if len(all) != tr.CountFDs() {
			t.Fatalf("n=%d: %d FDs extracted, tree holds %d", n, len(all), tr.CountFDs())
		}
		for i := 1; i < len(all); i++ {
			a, b := all[i-1], all[i]
			ordered := a.Rhs < b.Rhs ||
				a.Rhs == b.Rhs && (a.Lhs.Cardinality() < b.Lhs.Cardinality() ||
					a.Lhs.Cardinality() == b.Lhs.Cardinality() && a.Lhs.Key() < b.Lhs.Key())
			if !ordered {
				t.Fatalf("n=%d: %v listed before %v", n, a, b)
			}
		}
		for i, f := range all {
			f.Lhs.CopyFrom(bitset.FromIndices(n, i%n))
		}
		for i, f := range all {
			if !f.Lhs.Equal(bitset.FromIndices(n, i%n)) {
				t.Fatalf("n=%d: extracted LHSs share words", n)
			}
		}
	}
}

// TestFDsAllocs: extracting a cover and listing it makes a constant number
// of allocations, however many FDs it holds, over one- and two-word
// universes.
func TestFDsAllocs(t *testing.T) {
	for _, tr := range []*Tree{
		randomTree(rand.New(rand.NewSource(13)), 20, 3000),
		wideTree(rand.New(rand.NewSource(13)), 109, 300),
	} {
		if n := testing.AllocsPerRun(5, func() { tr.FDs().All() }); n > 16 {
			t.Fatalf("FDs plus All made %v allocations for %d FDs over %d attributes, want at most 16",
				n, tr.CountFDs(), tr.NumAttrs())
		}
	}
}

func TestApproxBytesGrows(t *testing.T) {
	tr := New(8)
	base := tr.ApproxBytes()
	tr.Add(bitset.FromIndices(8, 0, 1, 2, 3), 7)
	if tr.ApproxBytes() <= base {
		t.Fatal("ApproxBytes did not grow with nodes")
	}
}

// TestQuickTreeMatchesNaive compares the tree against a naive FD store on
// random add/remove/lookup workloads, over one- and two-word universes. The
// masked walks are checked with single-bit and multi-bit masks.
func TestQuickTreeMatchesNaive(t *testing.T) {
	type stored struct {
		lhs bitset.Set
		rhs int
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{8, 70}[r.Intn(2)]
		tr := New(n)
		naive := make(map[string]stored) // one entry per (lhs, rhs) pair
		randSet := func(oneIn int) bitset.Set {
			s := bitset.New(n)
			for i := 0; i < n; i++ {
				if r.Intn(oneIn) == 0 {
					s.Set(i)
				}
			}
			return s
		}
		for op := 0; op < 120; op++ {
			lhs := randSet(3)
			if n > 8 {
				lhs = randSet(12)
			}
			rhs := r.Intn(n)
			key := lhs.Key() + "|" + string(rune(rhs))
			_, present := naive[key]
			switch r.Intn(3) {
			case 0: // add
				if tr.Add(lhs, rhs) != !present {
					return false
				}
				naive[key] = stored{lhs, rhs}
			case 1: // remove
				if tr.Remove(lhs, rhs) != present {
					return false
				}
				delete(naive, key)
			default: // lookups
				if tr.ContainsFd(lhs, rhs) != present {
					return false
				}
				mask := randSet(2)
				if r.Intn(2) == 0 {
					mask = bitset.FromIndices(n, rhs)
				}
				// Ground truth: scan all stored FDs.
				wantGen := false
				generals := make(map[string]Generalization)
				covered := bitset.New(n)
				for _, e := range naive {
					if !e.lhs.IsSubsetOf(lhs) {
						continue
					}
					wantGen = wantGen || e.rhs == rhs
					covered.Set(e.rhs)
					if !mask.Test(e.rhs) {
						continue
					}
					g, ok := generals[e.lhs.Key()]
					if !ok {
						g = Generalization{Lhs: e.lhs, Rhss: bitset.New(n)}
						generals[e.lhs.Key()] = g
					}
					g.Rhss.Set(e.rhs)
				}
				if tr.FindFdOrGeneral(lhs, rhs) != wantGen {
					return false
				}
				if !sameGenerals(tr.GetFdsAndGenerals(lhs, mask), generals) {
					return false
				}
				left := mask.Clone()
				tr.ClearCovered(lhs, left)
				if !left.Equal(mask.AndNot(covered)) {
					return false
				}
			}
			if tr.CountFDs() != len(naive) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sameGenerals reports whether got holds exactly the generalizations in
// want, in depth-first order: ascending by the LHS's attribute list, a
// prefix before its extensions.
func sameGenerals(got []Generalization, want map[string]Generalization) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w, ok := want[g.Lhs.Key()]
		if !ok || !g.Rhss.Equal(w.Rhss) {
			return false
		}
		if i > 0 && slices.Compare(got[i-1].Lhs.Indices(), g.Lhs.Indices()) >= 0 {
			return false
		}
	}
	return true
}

func BenchmarkFindFdOrGeneral(b *testing.B) {
	const n = 32
	r := rand.New(rand.NewSource(3))
	tr := New(n)
	for i := 0; i < 2000; i++ {
		s := bitset.New(n)
		for j := 0; j < n; j++ {
			if r.Intn(6) == 0 {
				s.Set(j)
			}
		}
		tr.Add(s, r.Intn(n))
	}
	query := bitset.New(n)
	for j := 0; j < n; j += 2 {
		query.Set(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.FindFdOrGeneral(query, i%n)
	}
}

func BenchmarkAddRemove(b *testing.B) {
	const n = 24
	r := rand.New(rand.NewSource(5))
	var lhss []bitset.Set
	for i := 0; i < 1000; i++ {
		s := bitset.New(n)
		for j := 0; j < n; j++ {
			if r.Intn(5) == 0 {
				s.Set(j)
			}
		}
		lhss = append(lhss, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(n)
		for k, lhs := range lhss {
			tr.Add(lhs, k%n)
		}
		for k, lhs := range lhss {
			tr.Remove(lhs, k%n)
		}
	}
}

// wideTree returns a tree shaped like a wide FD-rich cover: k LHSs of one
// to four attributes over n attributes, each determining about half of the
// other attributes.
func wideTree(r *rand.Rand, n, k int) *Tree {
	tr := New(n)
	for i := 0; i < k; i++ {
		lhs := bitset.New(n)
		for j := 1 + r.Intn(4); j > 0; j-- {
			lhs.Set(r.Intn(n))
		}
		rhss := bitset.New(n)
		for a := 0; a < n; a++ {
			if !lhs.Test(a) && r.Intn(2) == 0 {
				rhss.Set(a)
			}
		}
		tr.AddRhss(lhs, rhss)
	}
	return tr
}

// BenchmarkTreeFDs extracts and lists a cover of random LHSs over 17
// attributes (one key word), and a wide cover over 109 attributes, whose
// two-word LHSs are flight's shape.
func BenchmarkTreeFDs(b *testing.B) {
	for _, c := range []struct {
		name string
		tree *Tree
	}{
		{"17attrs", randomTree(rand.New(rand.NewSource(7)), 17, 20000)},
		{"109attrs", wideTree(rand.New(rand.NewSource(7)), 109, 4000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.tree.FDs().All()
			}
		})
	}
}
