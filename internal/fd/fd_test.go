package fd

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/relation"
)

func classRelation() *relation.Relation {
	r := relation.New("class", []string{"Teacher", "Subject", "Room"})
	r.AppendRow([]string{"Brown", "Math", "R1"})
	r.AppendRow([]string{"Walker", "Math", "R2"})
	r.AppendRow([]string{"Brown", "English", "R1"})
	r.AppendRow([]string{"Miller", "English", "R3"})
	r.AppendRow([]string{"Brown", "Math", "R1"})
	return r
}

func TestHolds(t *testing.T) {
	rel := classRelation()
	// Teacher -> Room holds (Brown→R1 always, others unique).
	if !Holds(rel, relation.NullEqualsNull, bitset.FromIndices(3, 0), 2) {
		t.Fatal("Teacher -> Room should hold")
	}
	// Teacher -> Subject does not hold (Brown teaches Math and English).
	if Holds(rel, relation.NullEqualsNull, bitset.FromIndices(3, 0), 1) {
		t.Fatal("Teacher -> Subject should not hold")
	}
	// {Teacher,Subject} -> Room holds.
	if !Holds(rel, relation.NullEqualsNull, bitset.FromIndices(3, 0, 1), 2) {
		t.Fatal("{Teacher,Subject} -> Room should hold")
	}
	// Empty LHS: only if RHS constant.
	if Holds(rel, relation.NullEqualsNull, bitset.New(3), 0) {
		t.Fatal("∅ -> Teacher should not hold")
	}
}

// TestHoldsCellsContainingSeparators: records that differ on the LHS stay
// in different groups whatever bytes their cells hold, so a separator
// inside a value cannot merge them.
func TestHoldsCellsContainingSeparators(t *testing.T) {
	rel := relation.New("r", []string{"A", "B", "C"})
	rel.AppendRow([]string{"a\x01b", "c", "1"})
	rel.AppendRow([]string{"a", "b\x01c", "2"})
	rel.AppendRow([]string{"", "\x00", "3"})
	rel.AppendRow([]string{"\x00", "", "4"})
	if !Holds(rel, relation.NullEqualsNull, bitset.FromIndices(3, 0, 1), 2) {
		t.Fatal("AB -> C should hold: no two records agree on AB")
	}
}

func TestHoldsNullSemantics(t *testing.T) {
	rel := relation.New("r", []string{"A", "B"})
	rel.AppendRow([]string{relation.Null, "1"})
	rel.AppendRow([]string{relation.Null, "2"})
	// Under null=null the two rows agree on A but differ in B: invalid.
	if Holds(rel, relation.NullEqualsNull, bitset.FromIndices(2, 0), 1) {
		t.Fatal("A -> B should be violated under null=null")
	}
	// Under null≠null the rows never agree on A: valid.
	if !Holds(rel, relation.NullNotEqualsNull, bitset.FromIndices(2, 0), 1) {
		t.Fatal("A -> B should hold under null!=null")
	}
	// RHS nulls under null≠null: two equal LHS values, both B null.
	rel2 := relation.New("r2", []string{"A", "B"})
	rel2.AppendRow([]string{"x", relation.Null})
	rel2.AppendRow([]string{"x", relation.Null})
	if !Holds(rel2, relation.NullEqualsNull, bitset.FromIndices(2, 0), 1) {
		t.Fatal("A -> B should hold under null=null")
	}
	if Holds(rel2, relation.NullNotEqualsNull, bitset.FromIndices(2, 0), 1) {
		t.Fatal("A -> B should be violated under null!=null (⊥≠⊥ on RHS)")
	}
}

func TestSetAddContainsEqual(t *testing.T) {
	s := NewSet(4)
	f1 := FD{Lhs: bitset.FromIndices(4, 0), Rhs: 1}
	f2 := FD{Lhs: bitset.FromIndices(4, 0, 2), Rhs: 3}
	if !s.Add(f1) || !s.Add(f2) {
		t.Fatal("fresh adds should report true")
	}
	if s.Add(f1) {
		t.Fatal("duplicate add should report false")
	}
	if s.Size() != 2 || !s.Contains(f1) || s.Contains(FD{Lhs: bitset.FromIndices(4, 1), Rhs: 0}) {
		t.Fatal("membership broken")
	}
	u := NewSet(4)
	u.Add(f2)
	u.Add(f1)
	if !s.Equal(u) {
		t.Fatal("order-independent equality broken")
	}
	u.Add(FD{Lhs: bitset.FromIndices(4, 3), Rhs: 0})
	if s.Equal(u) {
		t.Fatal("unequal sets reported equal")
	}
	if d := u.Diff(s); len(d) != 1 || d[0].Rhs != 0 {
		t.Fatalf("Diff = %v", d)
	}
}

func TestAllCanonicalOrder(t *testing.T) {
	s := NewSet(4)
	s.Add(FD{Lhs: bitset.FromIndices(4, 1, 2), Rhs: 0})
	s.Add(FD{Lhs: bitset.FromIndices(4, 3), Rhs: 0})
	s.Add(FD{Lhs: bitset.FromIndices(4, 0), Rhs: 1})
	all := s.All()
	if all[0].Rhs != 0 || all[0].Lhs.Cardinality() != 1 {
		t.Fatalf("canonical order broken: %v", all)
	}
	if all[1].Rhs != 0 || all[1].Lhs.Cardinality() != 2 {
		t.Fatalf("canonical order broken: %v", all)
	}
	if all[2].Rhs != 1 {
		t.Fatalf("canonical order broken: %v", all)
	}
}

// keyStringOrder sorts a copy of fds into canonical order as defined, by
// RHS, then LHS cardinality, then the LHS Key() strings, building the
// strings in every comparison.
func keyStringOrder(fds []FD) []FD {
	out := append([]FD(nil), fds...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rhs != out[j].Rhs {
			return out[i].Rhs < out[j].Rhs
		}
		ci, cj := out[i].Lhs.Cardinality(), out[j].Lhs.Cardinality()
		if ci != cj {
			return ci < cj
		}
		return out[i].Lhs.Key() < out[j].Lhs.Key()
	})
	return out
}

// checkCanonical fails unless s.All() lists the FDs of s in key-string
// order.
func checkCanonical(t *testing.T, how string, s *Set) {
	t.Helper()
	all := s.All()
	if len(all) != s.Size() {
		t.Fatalf("%s: All has %d FDs, Size %d", how, len(all), s.Size())
	}
	for i, f := range keyStringOrder(all) {
		if !all[i].Lhs.Equal(f.Lhs) || all[i].Rhs != f.Rhs {
			t.Fatalf("%s: All()[%d] = %v, want %v", how, i, all[i], f)
		}
	}
}

// randomFDs draws count FDs, duplicates included, over n attributes.
func randomFDs(r *rand.Rand, n, count int) []FD {
	out := make([]FD, count)
	for i := range out {
		lhs := bitset.New(n)
		for a := 0; a < n; a++ {
			if r.Intn(4) == 0 {
				lhs.Set(a)
			}
		}
		out[i] = FD{Lhs: lhs, Rhs: r.Intn(n)}
	}
	return out
}

// TestAllMatchesKeyStringOrder: All keeps the canonical order however the
// set was built, including a set that stops being in order.
func TestAllMatchesKeyStringOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 3, 17, 64, 70} {
		for trial := 0; trial < 20; trial++ {
			fds := randomFDs(r, n, r.Intn(60))
			random := NewSet(n)
			for _, f := range fds {
				random.Add(f)
			}
			checkCanonical(t, "Add in random order", random)

			built := NewCanonicalSet(n, random.All())
			if !built.Equal(random) {
				t.Fatalf("NewCanonicalSet holds %v, want %v", built.All(), random.All())
			}
			checkCanonical(t, "NewCanonicalSet", built)
			shared := built.Sorted()
			for _, f := range randomFDs(r, n, 5) {
				built.Add(f)
				checkCanonical(t, "Add after a canonical build", built)
			}
			if len(shared) != random.Size() || !NewCanonicalSet(n, shared).Equal(random) {
				t.Fatal("Add changed the slice Sorted shared")
			}
			if sorted := built.Sorted(); !slices.EqualFunc(sorted, built.All(), func(a, b FD) bool { return compare(a, b) == 0 }) {
				t.Fatalf("Sorted lists %v, All %v", sorted, built.All())
			}

			checkCanonical(t, "Minimize", random.Minimize())

			cols := make([]string, n)
			for i := range cols {
				cols[i] = "c" + strconv.Itoa(i)
			}
			rel := relation.New("r", cols)
			var buf bytes.Buffer
			if err := random.WriteJSON(&buf, rel); err != nil {
				t.Fatal(err)
			}
			back, err := ReadJSON(&buf, rel)
			if err != nil {
				t.Fatal(err)
			}
			checkCanonical(t, "ReadJSON", back)
		}
	}
}

// TestSetConcurrentReads: Contains, All and Equal write nothing to the
// set, so one set may be read from several goroutines (run under -race).
func TestSetConcurrentReads(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	fds := randomFDs(r, 12, 200)
	unsorted := NewSet(12)
	for _, f := range fds {
		unsorted.Add(f)
	}
	sorted := NewCanonicalSet(12, unsorted.All())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range []*Set{sorted, unsorted} {
				for _, f := range fds {
					if !s.Contains(f) {
						t.Errorf("Contains(%v) = false", f)
					}
				}
				if len(s.All()) != s.Size() || !s.Equal(sorted) {
					t.Error("All or Equal changed under concurrent reads")
				}
			}
		}()
	}
	wg.Wait()
}

func TestMinimize(t *testing.T) {
	s := NewSet(4)
	s.Add(FD{Lhs: bitset.FromIndices(4, 0), Rhs: 1})
	s.Add(FD{Lhs: bitset.FromIndices(4, 0, 2), Rhs: 1}) // generalized by the first
	s.Add(FD{Lhs: bitset.FromIndices(4, 2, 3), Rhs: 1}) // incomparable, kept
	s.Add(FD{Lhs: bitset.FromIndices(4, 0), Rhs: 2})
	m := s.Minimize()
	if m.Size() != 3 {
		t.Fatalf("Minimize size = %d, want 3: %v", m.Size(), m)
	}
	if m.Contains(FD{Lhs: bitset.FromIndices(4, 0, 2), Rhs: 1}) {
		t.Fatal("non-minimal FD survived")
	}
}

func TestBruteForceClassExample(t *testing.T) {
	rel := classRelation()
	fds := BruteForce(rel, relation.NullEqualsNull)
	// Spot checks: Teacher -> Room minimal; Room -> Teacher holds
	// (R1→Brown, R2→Walker, R3→Miller).
	if !fds.Contains(FD{Lhs: bitset.FromIndices(3, 0), Rhs: 2}) {
		t.Fatalf("missing Teacher->Room:\n%s", fds)
	}
	if !fds.Contains(FD{Lhs: bitset.FromIndices(3, 2), Rhs: 0}) {
		t.Fatalf("missing Room->Teacher:\n%s", fds)
	}
	// Non-minimal {Teacher,Subject}->Room must be absent.
	if fds.Contains(FD{Lhs: bitset.FromIndices(3, 0, 1), Rhs: 2}) {
		t.Fatal("non-minimal FD in brute-force result")
	}
	// Every result must be valid and minimal.
	assertValidMinimal(t, rel, relation.NullEqualsNull, fds)
}

// assertValidMinimal checks that every FD in the set holds, is non-trivial,
// and has no valid generalization.
func assertValidMinimal(t *testing.T, rel *relation.Relation, ns relation.NullSemantics, fds *Set) {
	t.Helper()
	for _, f := range fds.All() {
		if f.Lhs.Test(f.Rhs) {
			t.Fatalf("trivial FD %v", f)
		}
		if !Holds(rel, ns, f.Lhs, f.Rhs) {
			t.Fatalf("invalid FD %v", f)
		}
		f.Lhs.ForEach(func(a int) bool {
			if Holds(rel, ns, f.Lhs.Without(a), f.Rhs) {
				t.Fatalf("non-minimal FD %v (drop %d)", f, a)
			}
			return true
		})
	}
}

func TestBruteForceConstantColumn(t *testing.T) {
	rel := relation.New("r", []string{"A", "B"})
	rel.AppendRow([]string{"c", "1"})
	rel.AppendRow([]string{"c", "2"})
	fds := BruteForce(rel, relation.NullEqualsNull)
	// ∅ -> A because A is constant; B -> A is then non-minimal.
	if !fds.Contains(FD{Lhs: bitset.New(2), Rhs: 0}) {
		t.Fatalf("missing ∅->A:\n%s", fds)
	}
	if fds.Contains(FD{Lhs: bitset.FromIndices(2, 1), Rhs: 0}) {
		t.Fatal("non-minimal B->A present")
	}
}

func TestBruteForceEdgeRelations(t *testing.T) {
	// Single row: every ∅ -> A holds.
	one := relation.New("one", []string{"A", "B"})
	one.AppendRow([]string{"x", "y"})
	fds := BruteForce(one, relation.NullEqualsNull)
	if fds.Size() != 2 {
		t.Fatalf("single-row FDs = %d, want 2:\n%s", fds.Size(), fds)
	}
	// Empty relation (no rows): all ∅ -> A hold vacuously.
	empty := relation.New("empty", []string{"A", "B", "C"})
	fds = BruteForce(empty, relation.NullEqualsNull)
	if fds.Size() != 3 {
		t.Fatalf("empty-relation FDs = %d, want 3", fds.Size())
	}
	// Single column: no non-trivial FD candidates except ∅ -> A.
	single := relation.New("single", []string{"A"})
	single.AppendRow([]string{"x"})
	single.AppendRow([]string{"y"})
	fds = BruteForce(single, relation.NullEqualsNull)
	if fds.Size() != 0 {
		t.Fatalf("single-column FDs = %d, want 0:\n%s", fds.Size(), fds)
	}
}

// TestQuickBruteForceSound verifies validity+minimality of brute-force
// results on random relations; every other algorithm is later compared
// against BruteForce, so its own soundness matters.
func TestQuickBruteForceSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := 2 + r.Intn(4)
		rows := 1 + r.Intn(20)
		names := make([]string, cols)
		for i := range names {
			names[i] = "c" + strconv.Itoa(i)
		}
		rel := relation.New("rnd", names)
		for i := 0; i < rows; i++ {
			row := make([]string, cols)
			for j := range row {
				row[j] = strconv.Itoa(r.Intn(3))
			}
			rel.AppendRow(row)
		}
		fds := BruteForce(rel, relation.NullEqualsNull)
		for _, f := range fds.All() {
			if f.Lhs.Test(f.Rhs) || !Holds(rel, relation.NullEqualsNull, f.Lhs, f.Rhs) {
				return false
			}
			ok := true
			f.Lhs.ForEach(func(a int) bool {
				if Holds(rel, relation.NullEqualsNull, f.Lhs.Without(a), f.Rhs) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
