package bitset

import (
	"cmp"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(0)
	if !s.IsEmpty() || s.Cardinality() != 0 || s.Universe() != 0 {
		t.Fatalf("zero-universe set not empty: %v", s)
	}
	if s.NextSet(0) != -1 {
		t.Fatalf("NextSet on empty universe = %d, want -1", s.NextSet(0))
	}
}

func TestSetClearTest(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Cardinality(); got != 8 {
		t.Fatalf("Cardinality = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Cardinality(); got != 7 {
		t.Fatalf("Cardinality = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, tc := range []struct {
		fn   func()
		want string
	}{
		{func() { s.Set(10) }, "bitset: index 10 out of range [0,10)"},
		{func() { s.Set(-1) }, "bitset: index -1 out of range [0,10)"},
		{func() { s.Clear(10) }, "bitset: index 10 out of range [0,10)"},
		{func() { s.Clear(-7) }, "bitset: index -7 out of range [0,10)"},
		{func() { New(0).Set(0) }, "bitset: index 0 out of range [0,0)"},
	} {
		func() {
			defer func() {
				if got, ok := recover().(string); !ok || got != tc.want {
					t.Fatalf("panic value %q, want the string %q", got, tc.want)
				}
			}()
			tc.fn()
		}()
	}
	// Test is lenient: out of range reports false.
	if s.Test(10) || s.Test(-1) {
		t.Fatal("Test out of range should be false")
	}
}

func TestFromIndicesAndIndices(t *testing.T) {
	s := FromIndices(70, 3, 69, 5)
	got := s.Indices()
	want := []int{3, 5, 69}
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromIndices(10, 1, 2)
	c := s.Clone()
	c.Set(3)
	if s.Test(3) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Test(1) || !c.Test(2) {
		t.Fatal("Clone lost members")
	}
}

func TestWithWithout(t *testing.T) {
	s := FromIndices(10, 1)
	w := s.With(2)
	if !w.Test(1) || !w.Test(2) || s.Test(2) {
		t.Fatal("With broken")
	}
	wo := w.Without(1)
	if wo.Test(1) || !wo.Test(2) || !w.Test(1) {
		t.Fatal("Without broken")
	}
}

func TestFlipMasksTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		s := New(n)
		f := s.Flip()
		if f.Cardinality() != n {
			t.Fatalf("Flip(empty,%d).Cardinality = %d, want %d", n, f.Cardinality(), n)
		}
		ff := f.Flip()
		if !ff.IsEmpty() {
			t.Fatalf("double Flip over %d not empty: %v", n, ff)
		}
	}
}

func TestNextSetWordBoundaries(t *testing.T) {
	s := FromIndices(200, 0, 63, 64, 127, 128, 199)
	var got []int
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{0, 63, 64, 127, 128, 199}
	if len(got) != len(want) {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration = %v, want %v", got, want)
		}
	}
	if s.NextSet(200) != -1 || s.NextSet(-5) != 0 {
		t.Fatal("NextSet boundary handling broken")
	}
}

func TestSubsetAndEqual(t *testing.T) {
	a := FromIndices(70, 1, 65)
	b := FromIndices(70, 1, 2, 65)
	if !a.IsSubsetOf(b) || b.IsSubsetOf(a) {
		t.Fatal("IsSubsetOf broken")
	}
	if !a.IsProperSubsetOf(b) || a.IsProperSubsetOf(a) {
		t.Fatal("IsProperSubsetOf broken")
	}
	if !a.IsSubsetOf(a) || !a.Equal(a.Clone()) {
		t.Fatal("reflexivity broken")
	}
}

func TestBooleanOps(t *testing.T) {
	a := FromIndices(70, 1, 2, 65)
	b := FromIndices(70, 2, 3, 65)
	if got := a.And(b).Indices(); len(got) != 2 || got[0] != 2 || got[1] != 65 {
		t.Fatalf("And = %v", got)
	}
	if got := a.Or(b).Indices(); len(got) != 4 {
		t.Fatalf("Or = %v", got)
	}
	if got := a.AndNot(b).Indices(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AndNot = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects false negative")
	}
	if a.Intersects(FromIndices(70, 4)) {
		t.Fatal("Intersects false positive")
	}
}

// TestInPlaceOps: the in-place mutators write the receiver's own words and
// agree with their allocating counterparts.
func TestInPlaceOps(t *testing.T) {
	a := FromIndices(70, 1, 2, 65)
	b := FromIndices(70, 2, 3, 66)
	alias := a // shares a's words
	a.UnionWith(b)
	if !alias.Equal(FromIndices(70, 1, 2, 3, 65, 66)) {
		t.Fatalf("UnionWith = %v", alias)
	}
	a.CopyFrom(b)
	if !alias.Equal(b) {
		t.Fatalf("CopyFrom = %v, want %v", alias, b)
	}
	b.Set(0)
	if a.Test(0) {
		t.Fatal("CopyFrom aliased the source's words")
	}
	a.SetWord(0, 0)
	a.SetWord(1, 0)
	if !alias.IsEmpty() || alias.Universe() != 70 {
		t.Fatalf("SetWord = %v over %d", alias, alias.Universe())
	}
	a.CopyFrom(FromIndices(70, 1, 2, 3, 65, 66))
	a.AndNotWith(b)
	if !alias.Equal(FromIndices(70, 1, 65)) {
		t.Fatalf("AndNotWith = %v", alias)
	}
	for _, fn := range []func(){
		func() { a.CopyFrom(New(200)) },
		func() { a.UnionWith(New(200)) },
		func() { a.AndNotWith(New(200)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on universe mismatch")
				}
			}()
			fn()
		}()
	}
}

func TestAppendIndices(t *testing.T) {
	s := FromIndices(130, 0, 64, 129)
	got := s.AppendIndices([]int{-1})
	if len(got) != 4 || got[0] != -1 || got[1] != 0 || got[2] != 64 || got[3] != 129 {
		t.Fatalf("AppendIndices = %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { got = s.AppendIndices(got[:0]) }); n != 0 {
		t.Fatalf("AppendIndices into a large enough slice allocated %v times", n)
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	buf := []byte("prefix")
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		s := randomSet(r, n)
		got := s.AppendKey(buf[:6])
		if string(got[:6]) != "prefix" || string(got[6:]) != s.Key() {
			t.Fatalf("n=%d: AppendKey = %q, want prefix+%q", n, got, s.Key())
		}
	}
	s := randomSet(r, 130)
	seen := map[string]bool{s.Key(): true}
	buf = s.AppendKey(buf[:0])
	if n := testing.AllocsPerRun(100, func() {
		buf = s.AppendKey(buf[:0])
		_ = seen[string(buf)]
	}); n != 0 {
		t.Fatalf("AppendKey + map lookup allocated %v times, want 0", n)
	}
}

func TestCloneInto(t *testing.T) {
	s := FromIndices(130, 0, 64, 129)
	words := make([]uint64, 7)
	c := s.CloneInto(words[2:])
	if !c.Equal(s) || c.Universe() != 130 {
		t.Fatalf("CloneInto = %v over %d", c, c.Universe())
	}
	c.Set(5)
	if s.Test(5) || words[2] != 1|1<<5 {
		t.Fatal("CloneInto did not copy into the given words")
	}
	if cap(c.words) != 3 || words[5] != 0 || words[1] != 0 {
		t.Fatal("CloneInto reached outside its own words")
	}
}

// TestCompareKeysMatchesKeyOrder: CompareKeys has the sign of
// strings.Compare on the two Key() strings, for universes of 1 to 130
// attributes.
func TestCompareKeysMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sign := func(c int) int { return cmp.Compare(c, 0) }
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 40; trial++ {
			a, b := randomSet(r, n), randomSet(r, n)
			if trial%4 == 0 {
				b = a.Clone()
				if i := r.Intn(n); trial%8 == 0 {
					b.Clear(i)
				} else {
					b.Set(i)
				}
			}
			if got, want := sign(CompareKeys(a, b)), sign(strings.Compare(a.Key(), b.Key())); got != want {
				t.Fatalf("n=%d: CompareKeys(%v, %v) = %d, want sign %d", n, a, b, got, want)
			}
		}
	}
}

func TestKeyDistinguishes(t *testing.T) {
	a := FromIndices(70, 1, 65)
	b := FromIndices(70, 1, 64)
	if a.Key() == b.Key() {
		t.Fatal("distinct sets share a Key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("equal sets have distinct Keys")
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(10, 1, 3).String(); got != "{1,3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestCompareCardinalityDesc(t *testing.T) {
	a := FromIndices(10, 1, 2, 3)
	b := FromIndices(10, 4)
	if CompareCardinalityDesc(a, b) >= 0 {
		t.Fatal("larger set should sort first")
	}
	if CompareCardinalityDesc(a, a.Clone()) != 0 {
		t.Fatal("equal sets should compare 0")
	}
	c := FromIndices(10, 1, 2, 4)
	if CompareCardinalityDesc(a, c) == 0 {
		t.Fatal("tie-break must distinguish different sets")
	}
}

// randomSet builds a Set from quick-check supplied bits.
func randomSet(r *rand.Rand, n int) Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Set(i)
		}
	}
	return s
}

func TestQuickAlgebraLaws(t *testing.T) {
	const n = 100
	cfg := &quick.Config{MaxCount: 200}
	// De Morgan: ¬(a ∪ b) = ¬a ∩ ¬b
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Or(b).Flip().Equal(a.Flip().And(b.Flip()))
	}, cfg)
	if err != nil {
		t.Errorf("De Morgan law failed: %v", err)
	}
	// a \ b = a ∩ ¬b
	err = quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.AndNot(b).Equal(a.And(b.Flip()))
	}, cfg)
	if err != nil {
		t.Errorf("difference law failed: %v", err)
	}
	// |a| + |b| = |a ∪ b| + |a ∩ b|
	err = quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Cardinality()+b.Cardinality() == a.Or(b).Cardinality()+a.And(b).Cardinality()
	}, cfg)
	if err != nil {
		t.Errorf("inclusion-exclusion failed: %v", err)
	}
	// subset ⇔ a ∩ b = a
	err = quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.IsSubsetOf(b) == a.And(b).Equal(a)
	}, cfg)
	if err != nil {
		t.Errorf("subset law failed: %v", err)
	}
	// Key equality ⇔ set equality
	err = quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return (a.Key() == b.Key()) == a.Equal(b)
	}, cfg)
	if err != nil {
		t.Errorf("Key uniqueness failed: %v", err)
	}
	// Indices roundtrip
	err = quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r, n)
		return FromIndices(n, a.Indices()...).Equal(a)
	}, cfg)
	if err != nil {
		t.Errorf("Indices roundtrip failed: %v", err)
	}
}

func BenchmarkAnd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 256), randomSet(r, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.And(y)
	}
}

func BenchmarkKey(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomSet(r, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Key()
	}
}
