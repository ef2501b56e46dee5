package closure

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

// textbook schema: R(A,B,C,D) with A→B, B→C.
func textbookFDs() *fd.Set {
	s := fd.NewSet(4)
	s.Add(fd.FD{Lhs: bitset.FromIndices(4, 0), Rhs: 1}) // A→B
	s.Add(fd.FD{Lhs: bitset.FromIndices(4, 1), Rhs: 2}) // B→C
	return s
}

func TestClosure(t *testing.T) {
	fds := textbookFDs()
	got := Closure(fds, bitset.FromIndices(4, 0))
	want := bitset.FromIndices(4, 0, 1, 2) // A⁺ = ABC
	if !got.Equal(want) {
		t.Fatalf("A+ = %v, want %v", got, want)
	}
	if !Closure(fds, bitset.FromIndices(4, 3)).Equal(bitset.FromIndices(4, 3)) {
		t.Fatal("D+ should be D")
	}
	if !Determines(fds, bitset.FromIndices(4, 0), 2) {
		t.Fatal("A should determine C transitively")
	}
	if Determines(fds, bitset.FromIndices(4, 1), 0) {
		t.Fatal("B must not determine A")
	}
}

func TestCandidateKeys(t *testing.T) {
	fds := textbookFDs()
	keys := CandidateKeys(fds, 4)
	// Only key: {A,D}.
	if len(keys) != 1 || !keys[0].Equal(bitset.FromIndices(4, 0, 3)) {
		t.Fatalf("keys = %v", keys)
	}
	// Schema with two keys: R(A,B) with A→B, B→A.
	two := fd.NewSet(2)
	two.Add(fd.FD{Lhs: bitset.FromIndices(2, 0), Rhs: 1})
	two.Add(fd.FD{Lhs: bitset.FromIndices(2, 1), Rhs: 0})
	keys = CandidateKeys(two, 2)
	if len(keys) != 2 {
		t.Fatalf("keys = %v, want {A} and {B}", keys)
	}
	// No FDs: the only key is the full schema.
	none := fd.NewSet(3)
	keys = CandidateKeys(none, 3)
	if len(keys) != 1 || keys[0].Cardinality() != 3 {
		t.Fatalf("keys = %v", keys)
	}
	// Zero attributes.
	keys = CandidateKeys(fd.NewSet(0), 0)
	if len(keys) != 1 || !keys[0].IsEmpty() {
		t.Fatalf("keys of empty schema = %v", keys)
	}
}

// TestQuickCandidateKeys cross-checks keys against direct enumeration.
func TestQuickCandidateKeys(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		fds := fd.NewSet(n)
		for i := 0; i < r.Intn(6); i++ {
			lhs := bitset.New(n)
			for a := 0; a < n; a++ {
				if r.Intn(3) == 0 {
					lhs.Set(a)
				}
			}
			rhs := r.Intn(n)
			if lhs.Test(rhs) {
				continue
			}
			fds.Add(fd.FD{Lhs: lhs, Rhs: rhs})
		}
		got := CandidateKeys(fds, n)
		// Brute force: all minimal superkeys.
		var superkeys []bitset.Set
		for mask := 0; mask < 1<<n; mask++ {
			x := bitset.New(n)
			for a := 0; a < n; a++ {
				if mask&(1<<a) != 0 {
					x.Set(a)
				}
			}
			if IsSuperkey(fds, x) {
				superkeys = append(superkeys, x)
			}
		}
		want := make(map[string]bool)
		for _, k := range superkeys {
			minimal := true
			for _, o := range superkeys {
				if o.IsProperSubsetOf(k) {
					minimal = false
					break
				}
			}
			if minimal {
				want[k.Key()] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, k := range got {
			if !want[k.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimalCover(t *testing.T) {
	s := fd.NewSet(3)
	s.Add(fd.FD{Lhs: bitset.FromIndices(3, 0), Rhs: 1}) // A→B
	s.Add(fd.FD{Lhs: bitset.FromIndices(3, 1), Rhs: 2}) // B→C
	s.Add(fd.FD{Lhs: bitset.FromIndices(3, 0), Rhs: 2}) // A→C (transitive)
	cover := MinimalCover(s)
	if cover.Size() != 2 {
		t.Fatalf("cover = %s", cover)
	}
	if cover.Contains(fd.FD{Lhs: bitset.FromIndices(3, 0), Rhs: 2}) {
		t.Fatal("transitive FD survived")
	}
	// Every original FD still derivable.
	for _, f := range s.All() {
		if !Determines(cover, f.Lhs, f.Rhs) {
			t.Fatalf("cover lost %v", f)
		}
	}
}

func TestBCNF(t *testing.T) {
	// R(A,B,C,D), A→B, B→C: classic two-step decomposition.
	fds := textbookFDs()
	subs := BCNF(fds, 4)
	if len(subs) < 2 {
		t.Fatalf("BCNF produced %d subschemas", len(subs))
	}
	// Every subschema must be violation-free.
	for _, s := range subs {
		if f, violated := bcnfViolation(fds, s.Attrs); violated {
			t.Fatalf("subschema %v still violates BCNF via %v", s.Attrs, f)
		}
		if s.Key.IsEmpty() && s.Attrs.Cardinality() > 1 {
			t.Fatalf("subschema %v has empty key", s.Attrs)
		}
	}
	// Attribute preservation: the union covers the schema.
	union := bitset.New(4)
	for _, s := range subs {
		union = union.Or(s.Attrs)
	}
	if union.Cardinality() != 4 {
		t.Fatalf("attributes lost: %v", union)
	}
	// Already-normalized schema stays whole.
	none := fd.NewSet(2)
	subs = BCNF(none, 2)
	if len(subs) != 1 || subs[0].Attrs.Cardinality() != 2 {
		t.Fatalf("BCNF of FD-free schema = %v", subs)
	}
}

func TestThirdNF(t *testing.T) {
	fds := textbookFDs()
	subs := ThirdNF(fds, 4)
	// Synthesis: {A,B}, {B,C}, plus key schema {A,D}.
	if len(subs) != 3 {
		t.Fatalf("3NF = %v", subs)
	}
	union := bitset.New(4)
	hasKey := false
	keys := CandidateKeys(fds, 4)
	for _, s := range subs {
		union = union.Or(s.Attrs)
		for _, k := range keys {
			if k.IsSubsetOf(s.Attrs) {
				hasKey = true
			}
		}
	}
	if union.Cardinality() != 4 {
		t.Fatalf("3NF lost attributes: %v", union)
	}
	if !hasKey {
		t.Fatal("3NF has no subschema containing a candidate key")
	}
	// Dependency preservation: every cover FD inside some subschema.
	for _, f := range MinimalCover(fds).All() {
		preserved := false
		for _, s := range subs {
			if f.Lhs.IsSubsetOf(s.Attrs) && s.Attrs.Test(f.Rhs) {
				preserved = true
				break
			}
		}
		if !preserved {
			t.Fatalf("3NF does not preserve %v", f)
		}
	}
}

func TestViolations(t *testing.T) {
	rel := relation.New("r", []string{"Zip", "City"})
	rel.AppendRow([]string{"14482", "Potsdam"})
	rel.AppendRow([]string{"14482", "Berlin"}) // violation
	rel.AppendRow([]string{"10115", "Berlin"})
	rel.AppendRow([]string{"14482", "Potsdam"})
	f := fd.FD{Lhs: bitset.FromIndices(2, 0), Rhs: 1}
	vs := Violations(rel, relation.NullEqualsNull, f, 0)
	if len(vs) != 2 { // (0,1) and (1,3)
		t.Fatalf("violations = %v", vs)
	}
	for _, v := range vs {
		if rel.Rows[v.Row1][0] != rel.Rows[v.Row2][0] {
			t.Fatalf("violation rows %d,%d do not agree on Zip", v.Row1, v.Row2)
		}
		if rel.Rows[v.Row1][1] == rel.Rows[v.Row2][1] {
			t.Fatalf("violation rows %d,%d agree on City", v.Row1, v.Row2)
		}
	}
	if got := Violations(rel, relation.NullEqualsNull, f, 1); len(got) != 1 {
		t.Fatalf("limit ignored: %v", got)
	}
	// A valid FD yields no violations.
	ok := fd.FD{Lhs: bitset.FromIndices(2, 0, 1), Rhs: 0}
	if got := Violations(rel, relation.NullEqualsNull, ok, 0); len(got) != 0 {
		t.Fatalf("unexpected violations %v", got)
	}
}

// TestViolationsCellsContainingSeparators: records that differ on the LHS
// are never reported as a violating pair, whatever bytes their cells hold.
func TestViolationsCellsContainingSeparators(t *testing.T) {
	rel := relation.New("r", []string{"A", "B", "C"})
	rel.AppendRow([]string{"a\x01b", "c", "1"})
	rel.AppendRow([]string{"a", "b\x01c", "2"})
	f := fd.FD{Lhs: bitset.FromIndices(3, 0, 1), Rhs: 2}
	if vs := Violations(rel, relation.NullEqualsNull, f, 0); len(vs) != 0 {
		t.Fatalf("records that differ on AB reported as violations: %v", vs)
	}
}

// TestBCNFOnDiscoveredFDs runs the whole pipeline on data: generate a
// denormalized relation, brute-force its FDs, decompose, and verify the
// decomposition is lossless on the instance (join of projections equals
// the original row set).
func TestBCNFOnDiscoveredFDs(t *testing.T) {
	rel := relation.New("orders", []string{"OrderID", "CustID", "CustName", "Item"})
	names := []string{"ada", "bob", "cyn"}
	for i := 0; i < 24; i++ {
		cust := i % 3
		rel.AppendRow([]string{
			strconv.Itoa(i), strconv.Itoa(cust), names[cust], "item" + strconv.Itoa(i%5),
		})
	}
	fds := fd.BruteForce(rel, relation.NullEqualsNull)
	subs := BCNF(fds, rel.NumCols())
	for _, s := range subs {
		if _, violated := bcnfViolation(fds, s.Attrs); violated {
			t.Fatalf("subschema %v violates BCNF", s.Attrs)
		}
	}
	// Losslessness on the instance via the chase-free special case: binary
	// decompositions produced by BCNF splits are lossless by construction;
	// verify on data by joining projections back together.
	joined := joinAll(rel, subs)
	orig := make(map[string]bool)
	for _, row := range rel.Rows {
		orig[rowKey(row)] = true
	}
	if len(joined) != len(orig) {
		t.Fatalf("join produced %d distinct rows, want %d", len(joined), len(orig))
	}
	for k := range joined {
		if !orig[k] {
			t.Fatal("join produced a spurious row")
		}
	}
}

func rowKey(row []string) string {
	k := ""
	for _, c := range row {
		k += c + "\x01"
	}
	return k
}

// joinAll naively natural-joins the projections of the subschemas and
// returns the distinct full-width rows.
func joinAll(rel *relation.Relation, subs []Subschema) map[string]bool {
	m := rel.NumCols()
	// Start with the first projection as partial rows (nil = unknown).
	partials := []map[int]string{}
	for _, row := range rel.Rows {
		p := map[int]string{}
		subs[0].Attrs.ForEach(func(a int) bool {
			p[a] = row[a]
			return true
		})
		partials = append(partials, p)
	}
	partials = dedupPartials(partials)
	for _, s := range subs[1:] {
		var proj []map[int]string
		for _, row := range rel.Rows {
			p := map[int]string{}
			s.Attrs.ForEach(func(a int) bool {
				p[a] = row[a]
				return true
			})
			proj = append(proj, p)
		}
		proj = dedupPartials(proj)
		var joined []map[int]string
		for _, p := range partials {
			for _, q := range proj {
				ok := true
				for a, v := range q {
					if pv, has := p[a]; has && pv != v {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				merged := map[int]string{}
				for a, v := range p {
					merged[a] = v
				}
				for a, v := range q {
					merged[a] = v
				}
				joined = append(joined, merged)
			}
		}
		partials = dedupPartials(joined)
	}
	out := make(map[string]bool)
	for _, p := range partials {
		if len(p) != m {
			continue
		}
		row := make([]string, m)
		for a, v := range p {
			row[a] = v
		}
		out[rowKey(row)] = true
	}
	return out
}

func dedupPartials(ps []map[int]string) []map[int]string {
	seen := make(map[string]bool)
	var out []map[int]string
	for _, p := range ps {
		keys := make([]int, 0, len(p))
		for a := range p {
			keys = append(keys, a)
		}
		// Deterministic key.
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				if keys[j] < keys[i] {
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
		}
		k := ""
		for _, a := range keys {
			k += strconv.Itoa(a) + "=" + p[a] + "\x01"
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// TestQuickMinimalCoverEquivalence: a minimal cover must derive exactly the
// same closures as the original FD set.
func TestQuickMinimalCoverEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		fds := fd.NewSet(n)
		for i := 0; i < r.Intn(8); i++ {
			lhs := bitset.New(n)
			for a := 0; a < n; a++ {
				if r.Intn(3) == 0 {
					lhs.Set(a)
				}
			}
			rhs := r.Intn(n)
			if lhs.Test(rhs) {
				continue
			}
			fds.Add(fd.FD{Lhs: lhs, Rhs: rhs})
		}
		cover := MinimalCover(fds)
		if cover.Size() > fds.Size() {
			return false
		}
		// Same closure for every subset of attributes.
		for mask := 0; mask < 1<<n; mask++ {
			x := bitset.New(n)
			for a := 0; a < n; a++ {
				if mask&(1<<a) != 0 {
					x.Set(a)
				}
			}
			if !Closure(fds, x).Equal(Closure(cover, x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBCNFSubschemasViolationFree: every decomposition output must be
// violation-free and attribute-preserving, for random FD sets.
func TestQuickBCNFSubschemasViolationFree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		fds := fd.NewSet(n)
		for i := 0; i < r.Intn(6); i++ {
			lhs := bitset.New(n)
			for a := 0; a < n; a++ {
				if r.Intn(3) == 0 {
					lhs.Set(a)
				}
			}
			rhs := r.Intn(n)
			if lhs.Test(rhs) {
				continue
			}
			fds.Add(fd.FD{Lhs: lhs, Rhs: rhs})
		}
		subs := BCNF(fds, n)
		union := bitset.New(n)
		for _, s := range subs {
			if _, violated := bcnfViolation(fds, s.Attrs); violated {
				return false
			}
			union = union.Or(s.Attrs)
		}
		return union.Cardinality() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
