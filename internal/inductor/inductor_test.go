package inductor

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
)

func TestInitialTree(t *testing.T) {
	in := New(3)
	fds := in.Tree().FDs()
	if fds.Size() != 3 {
		t.Fatalf("initial tree has %d FDs, want 3 (∅→A for each A):\n%s", fds.Size(), fds)
	}
	for rhs := 0; rhs < 3; rhs++ {
		if !fds.Contains(fd.FD{Lhs: bitset.New(3), Rhs: rhs}) {
			t.Fatalf("missing ∅ → %d", rhs)
		}
	}
}

// TestPaperExampleSection4 reproduces the §4 walkthrough: schema R(A,B,C),
// non-FD A ↛ B (observation: records agree on A only, so A ↛ B and A ↛ C).
// The paper discusses only the B side: result ∅→AC plus C→B. With the full
// observation the C side specializes symmetrically to B→C.
func TestPaperExampleSection4(t *testing.T) {
	in := New(3)
	in.Update([]bitset.Set{bitset.FromIndices(3, 0)}) // agree on {A}
	got := in.Tree().FDs()
	want := fd.NewSet(3)
	want.Add(fd.FD{Lhs: bitset.New(3), Rhs: 0})            // ∅ → A
	want.Add(fd.FD{Lhs: bitset.FromIndices(3, 2), Rhs: 1}) // C → B
	want.Add(fd.FD{Lhs: bitset.FromIndices(3, 1), Rhs: 2}) // B → C
	if !got.Equal(want) {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// coverReference computes, by brute force, all minimal non-trivial FDs
// consistent with a negative cover of agree-sets: X → A is inconsistent iff
// some observed agree-set Y has X ⊆ Y and A ∉ Y.
func coverReference(numAttrs int, obs []bitset.Set) *fd.Set {
	out := fd.NewSet(numAttrs)
	consistent := func(lhs bitset.Set, rhs int) bool {
		for _, y := range obs {
			if lhs.IsSubsetOf(y) && !y.Test(rhs) {
				return false
			}
		}
		return true
	}
	for rhs := 0; rhs < numAttrs; rhs++ {
		var found []bitset.Set
		level := []bitset.Set{bitset.New(numAttrs)}
		for len(level) > 0 {
			var next []bitset.Set
			seen := make(map[string]struct{})
			for _, lhs := range level {
				dominated := false
				for _, g := range found {
					if g.IsSubsetOf(lhs) {
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				if consistent(lhs, rhs) {
					found = append(found, lhs)
					out.Add(fd.FD{Lhs: lhs, Rhs: rhs})
					continue
				}
				for a := 0; a < numAttrs; a++ {
					if a == rhs || lhs.Test(a) {
						continue
					}
					sp := lhs.With(a)
					if _, dup := seen[sp.Key()]; dup {
						continue
					}
					seen[sp.Key()] = struct{}{}
					next = append(next, sp)
				}
			}
			level = next
		}
	}
	return out
}

func TestUpdateMatchesCoverReference(t *testing.T) {
	// Deterministic scenario over 4 attributes.
	obs := []bitset.Set{
		bitset.FromIndices(4, 3),       // agree {D}: D ↛ A,B,C
		bitset.FromIndices(4, 0, 1),    // agree {A,B}
		bitset.FromIndices(4, 0, 2, 3), // agree {A,C,D}
	}
	in := New(4)
	in.Update(obs)
	got := in.Tree().FDs()
	want := coverReference(4, obs)
	if !got.Equal(want) {
		t.Fatalf("got:\n%s\nwant:\n%s\nmissing: %v\nextra: %v",
			got, want, want.Diff(got), got.Diff(want))
	}
}

func TestIncrementalUpdateEqualsBatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 6
	var obs []bitset.Set
	for i := 0; i < 12; i++ {
		s := bitset.New(n)
		for a := 0; a < n; a++ {
			if r.Intn(2) == 0 {
				s.Set(a)
			}
		}
		obs = append(obs, s)
	}
	batch := New(n)
	batch.Update(obs)
	incr := New(n)
	incr.Update(obs[:4])
	incr.Update(obs[4:9])
	incr.Update(obs[9:])
	if !batch.Tree().FDs().Equal(incr.Tree().FDs()) {
		t.Fatalf("incremental updates diverge from batch:\nbatch:\n%s\nincr:\n%s",
			batch.Tree().FDs(), incr.Tree().FDs())
	}
}

func TestQuickUpdateMatchesCoverReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		numObs := r.Intn(10)
		var obs []bitset.Set
		for i := 0; i < numObs; i++ {
			s := bitset.New(n)
			for a := 0; a < n; a++ {
				if r.Intn(2) == 0 {
					s.Set(a)
				}
			}
			obs = append(obs, s)
		}
		in := New(n)
		in.Update(obs)
		return in.Tree().FDs().Equal(coverReference(n, obs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFullAgreeObservationIsNoOp(t *testing.T) {
	in := New(3)
	before := in.Tree().FDs()
	in.Update([]bitset.Set{bitset.New(3).Flip()}) // identical records
	if !in.Tree().FDs().Equal(before) {
		t.Fatal("full agree-set changed the tree")
	}
}

func TestEmptyAgreeObservation(t *testing.T) {
	// Records that agree on nothing invalidate every ∅ → A.
	in := New(3)
	in.Update([]bitset.Set{bitset.New(3)})
	got := in.Tree().FDs()
	want := coverReference(3, []bitset.Set{bitset.New(3)})
	if !got.Equal(want) {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	// No ∅ → A may survive.
	for rhs := 0; rhs < 3; rhs++ {
		if got.Contains(fd.FD{Lhs: bitset.New(3), Rhs: rhs}) {
			t.Fatalf("∅ → %d survived an empty agree-set", rhs)
		}
	}
}

func TestMaxLhsRespected(t *testing.T) {
	in := New(5)
	in.Tree().SetMaxLhs(1)
	// Invalidate all single-attribute FDs for rhs 4 so specializations
	// would need LHS size 2 — which the bound refuses.
	var obs []bitset.Set
	for a := 0; a < 4; a++ {
		obs = append(obs, bitset.FromIndices(5, a))
	}
	in.Update(obs)
	for _, f := range in.Tree().FDs().All() {
		if f.Lhs.Cardinality() > 1 {
			t.Fatalf("FD %v exceeds maxLhs=1", f)
		}
	}
}

// referenceTree returns a tree seeded as New seeds it, one Add per RHS.
func referenceTree(n int) *fdtree.Tree {
	tr := fdtree.New(n)
	for a := 0; a < n; a++ {
		tr.Add(bitset.New(n), a)
	}
	return tr
}

// referenceUpdate is Alg. 3 one RHS at a time: one generalization walk per
// (agree set, RHS) pair, then one FindFdOrGeneral walk per specialization
// tried. A single-bit GetFdsAndGenerals mask is the per-RHS walk (see the
// fdtree tests).
func referenceUpdate(tr *fdtree.Tree, nonFds []bitset.Set) {
	n := tr.NumAttrs()
	sorted := append([]bitset.Set(nil), nonFds...)
	sort.Slice(sorted, func(i, j int) bool {
		return bitset.CompareCardinalityDesc(sorted[i], sorted[j]) < 0
	})
	for _, lhs := range sorted {
		rhss := lhs.Flip()
		for rhs := rhss.NextSet(0); rhs >= 0; rhs = rhss.NextSet(rhs + 1) {
			maxLhs := tr.MaxLhs()
			for _, g := range tr.GetFdsAndGenerals(lhs, bitset.FromIndices(n, rhs)) {
				tr.Remove(g.Lhs, rhs)
				if g.Lhs.Cardinality() >= maxLhs {
					continue
				}
				for attr := 0; attr < n; attr++ {
					if lhs.Test(attr) || rhs == attr {
						continue
					}
					newLhs := g.Lhs.With(attr)
					if tr.FindFdOrGeneral(newLhs, rhs) {
						continue
					}
					tr.Add(newLhs, rhs)
				}
			}
		}
	}
}

// treeDiff describes the first difference between two trees in their FDs,
// node count or level order, or returns "" if there is none.
func treeDiff(got, want *fdtree.Tree) string {
	if g, w := got.FDs().String(), want.FDs().String(); g != w {
		return fmt.Sprintf("FDs differ:\ngot:\n%swant:\n%s", g, w)
	}
	if got.NodeCount() != want.NodeCount() {
		return fmt.Sprintf("NodeCount %d, want %d", got.NodeCount(), want.NodeCount())
	}
	if got.Depth() != want.Depth() {
		return fmt.Sprintf("Depth %d, want %d", got.Depth(), want.Depth())
	}
	for d := 0; d <= want.Depth(); d++ {
		gl, wl := got.GetLevel(d), want.GetLevel(d)
		if len(gl) != len(wl) {
			return fmt.Sprintf("level %d has %d nodes, want %d", d, len(gl), len(wl))
		}
		for i := range wl {
			if !gl[i].Lhs.Equal(wl[i].Lhs) {
				return fmt.Sprintf("level %d node %d is %v, want %v", d, i, gl[i].Lhs, wl[i].Lhs)
			}
		}
	}
	return ""
}

// unmark applies the same validator-style edit to every tree: a random
// share of one level's nodes loses one marked RHS through SetFds, which
// leaves the subtree summaries stale. The trees must agree on that level's
// order.
func unmark(r *rand.Rand, trees ...*fdtree.Tree) {
	d := r.Intn(trees[0].Depth() + 1)
	levels := make([][]fdtree.Node, len(trees))
	for i, tr := range trees {
		levels[i] = tr.GetLevel(d)
	}
	n := trees[0].NumAttrs()
	for j := range levels[0] {
		if r.Intn(2) == 0 {
			continue
		}
		valid := levels[0][j].RhsFds()
		if a := valid.NextSet(r.Intn(n)); a >= 0 {
			valid.Clear(a)
		}
		for _, level := range levels {
			level[j].SetFds(valid)
		}
	}
}

// differential feeds the batches to Update and to referenceUpdate and
// returns the first difference after a batch. maxLhs > 0 bounds both
// trees' LHS size first; r, if non-nil, unmarks between batches.
func differential(n, maxLhs int, batches [][]bitset.Set, r *rand.Rand) string {
	in, ref := New(n), referenceTree(n)
	if maxLhs > 0 {
		in.Tree().SetMaxLhs(maxLhs)
		ref.SetMaxLhs(maxLhs)
	}
	for i, batch := range batches {
		in.Update(batch)
		referenceUpdate(ref, batch)
		if diff := treeDiff(in.Tree(), ref); diff != "" {
			return fmt.Sprintf("after batch %d of %v: %s", i, batches, diff)
		}
		if r != nil {
			unmark(r, in.Tree(), ref)
		}
	}
	return ""
}

// randomAgreeSet draws an agree set over n attributes. Over wide universes
// it misses at most three attributes, which keeps the covers small.
func randomAgreeSet(r *rand.Rand, n int) bitset.Set {
	s := bitset.New(n)
	if n <= 10 {
		for a := 0; a < n; a++ {
			if r.Intn(2) == 0 {
				s.Set(a)
			}
		}
		return s
	}
	s = s.Flip()
	for k := r.Intn(4); k > 0; k-- {
		s.Clear(r.Intn(n))
	}
	return s
}

// TestUpdateMatchesPerRhsReference holds the batched Update to the per-RHS
// reference on random agree-set batches, over one- and two-word universes,
// with and without an LHS bound, and with stale summaries between batches.
func TestUpdateMatchesPerRhsReference(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 60
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		r := rand.New(rand.NewSource(seed))
		n := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 65, 70}[r.Intn(12)]
		batches := make([][]bitset.Set, 1+r.Intn(4))
		for i := range batches {
			for k := r.Intn(6); k > 0; k-- {
				batches[i] = append(batches[i], randomAgreeSet(r, n))
			}
		}
		for _, maxLhs := range []int{0, 1 + r.Intn(3)} {
			if diff := differential(n, maxLhs, batches, r); diff != "" {
				t.Fatalf("seed %d, n=%d, maxLhs=%d: %s", seed, n, maxLhs, diff)
			}
		}
	}
}

// FuzzInductorDifferential holds the batched Update to the per-RHS
// reference on fuzzed universes, agree-set batches and LHS bounds. Over
// universes of up to seven attributes, an unbounded run must also equal
// the brute-force coverReference.
//
// The universe has 1 + size%72 attributes; bound%4 is the LHS bound, 0 for
// none. Each agree set takes one control byte c; bit 7 of c ends the batch.
// Up to seven attributes, the low bits of c are the agree set. Over wider
// universes the agree set misses c&3 attributes, named by the next bytes.
// At most 12 agree sets are read, so the covers stay small.
func FuzzInductorDifferential(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte{0x01, 0x82, 0x04})
	f.Add(uint8(5), uint8(0), []byte{0x15, 0x0a, 0x83, 0x30, 0x00})
	f.Add(uint8(6), uint8(2), []byte{0x41, 0x22, 0x94, 0x08, 0x00, 0x7f})
	f.Add(uint8(69), uint8(0), []byte{0x03, 0, 64, 69, 0x82, 3, 66, 0x01, 68, 0x03, 1, 2, 65})
	f.Add(uint8(69), uint8(3), []byte{0x02, 5, 67, 0x83, 0, 64, 69, 0x01, 64})
	f.Fuzz(func(t *testing.T, size, bound uint8, data []byte) {
		n := 1 + int(size)%72
		batches := [][]bitset.Set{nil}
		for sets := 0; len(data) > 0 && sets < 12; sets++ {
			c := data[0]
			data = data[1:]
			s := bitset.New(n)
			if n <= 7 {
				for a := 0; a < n; a++ {
					if c>>a&1 != 0 {
						s.Set(a)
					}
				}
			} else {
				s = s.Flip()
				for k := int(c & 3); k > 0 && len(data) > 0; k-- {
					s.Clear(int(data[0]) % n)
					data = data[1:]
				}
			}
			last := len(batches) - 1
			batches[last] = append(batches[last], s)
			if c&0x80 != 0 {
				batches = append(batches, nil)
			}
		}
		maxLhs := int(bound) % 4
		if diff := differential(n, maxLhs, batches, nil); diff != "" {
			t.Fatalf("n=%d, maxLhs=%d: %s", n, maxLhs, diff)
		}
		if maxLhs > 0 || n > 7 {
			return
		}
		in := New(n)
		var all []bitset.Set
		for _, batch := range batches {
			in.Update(batch)
			all = append(all, batch...)
		}
		if got, want := in.Tree().FDs(), coverReference(n, all); !got.Equal(want) {
			t.Fatalf("n=%d: got:\n%s\nwant:\n%s", n, got, want)
		}
	})
}

// hepatitisCover records the negative cover of the hepatitis analog: the
// distinct agree sets of all its record pairs, which is what the sampler
// hands the inductor once it has compared every pair.
func hepatitisCover(tb testing.TB) (int, []bitset.Set) {
	ds, err := datasets.ByName("hepatitis")
	if err != nil {
		tb.Fatal(err)
	}
	rel := ds.Generate(1)
	seen := make(map[string]bool)
	var cover []bitset.Set
	for a := range rel.Rows {
		for b := a + 1; b < len(rel.Rows); b++ {
			agree := bitset.New(rel.NumCols())
			for c, v := range rel.Rows[a] {
				if v == rel.Rows[b][c] {
					agree.Set(c)
				}
			}
			if !seen[agree.Key()] {
				seen[agree.Key()] = true
				cover = append(cover, agree)
			}
		}
	}
	return rel.NumCols(), cover
}

// BenchmarkInductorUpdate induces the hepatitis analog's cover from its
// recorded negative cover, from a fresh tree each iteration.
func BenchmarkInductorUpdate(b *testing.B) {
	n, cover := hepatitisCover(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(n).Update(cover)
	}
}
