package validator

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/inductor"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
	"hyfd/internal/sampler"
	"hyfd/internal/trace"
)

// run executes one validation run under a background context.
func run(tb testing.TB, v *Validator, exhaustive bool) *Result {
	tb.Helper()
	res, err := v.Run(context.Background(), exhaustive)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func buildRel(rows [][]string, cols []string) *relation.Relation {
	rel := relation.New("t", cols)
	for _, r := range rows {
		rel.AppendRow(r)
	}
	return rel
}

func randomRelation(r *rand.Rand, rows, cols, domain int) *relation.Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
	}
	rel := relation.New("rnd", names)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(domain))
		}
		rel.AppendRow(row)
	}
	return rel
}

// runExhaustive validates a seeded candidate tree to completion.
func runExhaustive(t *testing.T, rel *relation.Relation, threads int) *fd.Set {
	t.Helper()
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	ind := inductor.New(rel.NumCols())
	v := New(ix, ind.Tree(), WithThreads(threads))
	res := run(t, v, true)
	if !res.Done {
		t.Fatal("exhaustive run did not finish")
	}
	return ind.Tree().FDs()
}

// TestValidatorAloneEqualsBruteForce: Phase 2 starting from the most
// general candidates ∅→A must discover everything by itself (the paper
// notes each phase can run standalone).
func TestValidatorAloneEqualsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		rel := randomRelation(r, 5+r.Intn(40), 2+r.Intn(4), 1+r.Intn(4))
		got := runExhaustive(t, rel, 1)
		want := fd.BruteForce(rel, relation.NullEqualsNull)
		if !got.Equal(want) {
			t.Fatalf("trial %d:\nmissing: %v\nextra: %v", trial, want.Diff(got), got.Diff(want))
		}
	}
}

func TestValidatorParallelEqualsSequential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		rel := randomRelation(r, 40, 5, 3)
		if !runExhaustive(t, rel, 1).Equal(runExhaustive(t, rel, 8)) {
			t.Fatalf("trial %d: parallel validation diverged", trial)
		}
	}
}

func TestRefinesDirectCheck(t *testing.T) {
	// Room is determined by Teacher; Subject is not.
	rel := buildRel([][]string{
		{"Brown", "Math", "R1"},
		{"Walker", "Math", "R2"},
		{"Brown", "English", "R1"},
		{"Miller", "English", "R3"},
		{"Brown", "Math", "R1"},
	}, []string{"Teacher", "Subject", "Room"})
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	ck := newChecker(ix)
	valid, suggestions := ck.refines(bitset.FromIndices(3, 0), bitset.FromIndices(3, 1, 2))
	if !valid.Test(2) {
		t.Fatal("Teacher → Room rejected")
	}
	if valid.Test(1) {
		t.Fatal("Teacher → Subject accepted")
	}
	if len(suggestions) == 0 {
		t.Fatal("no violation witness returned")
	}
	// The witness pair must actually violate Teacher → Subject.
	for _, p := range suggestions {
		if rel.Rows[p.A][0] != rel.Rows[p.B][0] {
			t.Fatalf("suggestion (%d,%d) does not agree on Teacher", p.A, p.B)
		}
	}
}

func TestRefinesEmptyLhs(t *testing.T) {
	rel := buildRel([][]string{
		{"c", "1"}, {"c", "2"}, {"c", "1"},
	}, []string{"A", "B"})
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	ck := newChecker(ix)
	valid, suggestions := ck.refines(bitset.New(2), bitset.FromIndices(2, 0, 1))
	if !valid.Test(0) {
		t.Fatal("∅ → A rejected for constant A")
	}
	if valid.Test(1) {
		t.Fatal("∅ → B accepted for non-constant B")
	}
	if len(suggestions) != 1 {
		t.Fatalf("suggestions = %v", suggestions)
	}
	p := suggestions[0]
	if rel.Rows[p.A][1] == rel.Rows[p.B][1] {
		t.Fatal("∅-violation witness agrees on B")
	}
}

// randomNullRelation is randomRelation with a share of Null cells.
func randomNullRelation(r *rand.Rand, rows, cols, domain int, nullRate float64) *relation.Relation {
	rel := randomRelation(r, rows, cols, domain)
	for _, row := range rel.Rows {
		for j := range row {
			if r.Float64() < nullRate {
				row[j] = relation.Null
			}
		}
	}
	return rel
}

// equalUnder reports whether two cells are equal under the null semantics.
func equalUnder(ns relation.NullSemantics, x, y string) bool {
	return x == y && (x != relation.Null || ns == relation.NullEqualsNull)
}

// checkWitnesses reports the first suggestion that is not a real witness:
// the two records must agree on every LHS attribute and differ on some RHS
// that came back invalid.
func checkWitnesses(rel *relation.Relation, ns relation.NullSemantics, lhs, rhss, valid bitset.Set, suggestions []pli.Pair) (pli.Pair, bool) {
	for _, p := range suggestions {
		ra, rb := rel.Rows[p.A], rel.Rows[p.B]
		ok := p.A != p.B
		lhs.ForEach(func(a int) bool {
			ok = ok && equalUnder(ns, ra[a], rb[a])
			return ok
		})
		differs := false
		rhss.AndNot(valid).ForEach(func(rhs int) bool {
			differs = !equalUnder(ns, ra[rhs], rb[rhs])
			return !differs
		})
		if !ok || !differs {
			return p, false
		}
	}
	return pli.Pair{}, true
}

// TestQuickRefinesMatchesHolds: the direct refinement check must agree with
// the definitional FD check on random relations and random candidates, and
// every suggestion must witness a violation. Universes run past 64 columns
// (two-word bitsets), both null semantics are covered, and tiny domains make
// probe collisions in the grouping table common. A second checker whose
// hash sends every record to one slot must return the same result, so
// nothing observable depends on the hash.
func TestQuickRefinesMatchesHolds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := 2 + r.Intn(5)
		if r.Intn(3) == 0 {
			cols = 65 + r.Intn(16)
		}
		ns := relation.NullSemantics(r.Intn(2))
		rel := randomNullRelation(r, 1+r.Intn(40), cols, 1+r.Intn(4), 0.1)
		ix := pli.NewIndex(rel, ns)
		ck, collide := newChecker(ix), newChecker(ix)
		collide.key0, collide.key1 = 0, 0
		for trial := 0; trial < 10; trial++ {
			lhs := bitset.FromIndices(cols, r.Perm(cols)[:r.Intn(min(cols, 6))]...)
			rhss := lhs.Flip()
			valid, suggestions := ck.refines(lhs, rhss)
			ok := true
			rhss.ForEach(func(rhs int) bool {
				if valid.Test(rhs) != fd.Holds(rel, ns, lhs, rhs) {
					t.Errorf("seed %d: %v -> %d: refines %v, Holds disagrees", seed, lhs, rhs, valid.Test(rhs))
					ok = false
				}
				return ok
			})
			if p, good := checkWitnesses(rel, ns, lhs, rhss, valid, suggestions); !good {
				t.Errorf("seed %d: LHS %v: suggestion %+v is no witness", seed, lhs, p)
				ok = false
			}
			valid2, suggestions2 := collide.refines(lhs, rhss)
			if !valid2.Equal(valid) || !slices.Equal(suggestions2, suggestions) {
				t.Errorf("seed %d: LHS %v: colliding hash changed the result", seed, lhs)
				ok = false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRefinesAllocs pins the reusable grouping table: a warm refines on a
// 3-attribute LHS allocates its result only, however many pivot clusters
// there are.
func TestRefinesAllocs(t *testing.T) {
	allocs := func(pivotDomain int) float64 {
		r := rand.New(rand.NewSource(int64(pivotDomain)))
		rel := relation.New("t", []string{"a", "b", "c", "d", "e"})
		for i := 0; i < 2000; i++ {
			a, b, c := i%pivotDomain, r.Intn(3), r.Intn(3)
			rel.AppendRow([]string{strconv.Itoa(a), strconv.Itoa(b), strconv.Itoa(c),
				strconv.Itoa((a + 2*b + c) % 5), strconv.Itoa(b * c)})
		}
		ix := pli.NewIndex(rel, relation.NullEqualsNull)
		if got := len(ix.Plis[0].Clusters); got != pivotDomain {
			t.Fatalf("pivot has %d clusters, want %d", got, pivotDomain)
		}
		ck := newChecker(ix)
		lhs, rhss := bitset.FromIndices(5, 0, 1, 2), bitset.FromIndices(5, 3, 4)
		valid, suggestions := ck.refines(lhs, rhss)
		if !valid.Equal(rhss) || len(suggestions) != 0 {
			t.Fatalf("valid = %v, suggestions = %v; want both FDs to hold", valid, suggestions)
		}
		return testing.AllocsPerRun(50, func() { ck.refines(lhs, rhss) })
	}
	few, many := allocs(4), allocs(400)
	if few != many || many > 1 {
		t.Fatalf("refines allocated %v times over 4 pivot clusters and %v over 400, want the same single allocation", few, many)
	}
}

func TestPhaseSwitchReturnsSuggestions(t *testing.T) {
	// Candidates seeded at ∅ on a relation with no valid FDs at low levels
	// force a quick switch with a tight threshold.
	r := rand.New(rand.NewSource(17))
	rel := randomRelation(r, 60, 5, 2)
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	ind := inductor.New(rel.NumCols())
	v := New(ix, ind.Tree(), WithInvalidThreshold(0.01))
	res := run(t, v, false)
	if res.Done {
		t.Skip("relation validated in one go; no switch to observe")
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("switch without suggestions")
	}
	if res.InvalidFds == 0 {
		t.Fatal("switch without invalid candidates")
	}
	// Every suggestion must be a genuine record pair.
	for _, p := range res.Suggestions {
		if p.A == p.B || int(p.A) >= rel.NumRows() || int(p.B) >= rel.NumRows() {
			t.Fatalf("bogus suggestion %+v", p)
		}
	}
	// Resuming exhaustively must finish the job correctly.
	res2 := run(t, v, true)
	if !res2.Done {
		t.Fatal("resumed run did not finish")
	}
	got := ind.Tree().FDs()
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	if !got.Equal(want) {
		t.Fatalf("after resume:\nmissing: %v\nextra: %v", want.Diff(got), got.Diff(want))
	}
}

func TestValidatorRespectsMaxLhs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	rel := randomRelation(r, 25, 7, 2)
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	ind := inductor.New(rel.NumCols())
	ind.Tree().SetMaxLhs(2)
	v := New(ix, ind.Tree(), WithThreads(1))
	if !run(t, v, true).Done {
		t.Fatal("bounded run did not finish")
	}
	for _, f := range ind.Tree().FDs().All() {
		if f.Lhs.Cardinality() > 2 {
			t.Fatalf("FD %v exceeds bound", f)
		}
		if !fd.Holds(rel, relation.NullEqualsNull, f.Lhs, f.Rhs) {
			t.Fatalf("invalid FD %v", f)
		}
	}
}

func TestValidatorOnEmptyTreeLevels(t *testing.T) {
	// A tree whose candidates were all eliminated: Run must terminate
	// immediately and report Done.
	rel := buildRel([][]string{{"1"}, {"2"}}, []string{"A"})
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	tree := fdtree.New(1)
	tree.Remove(bitset.New(1), 0) // no-op; tree empty
	v := New(ix, tree)
	res := run(t, v, false)
	if !res.Done || res.ValidFds != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunCanceledContext(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rel := randomRelation(r, 60, 6, 2)
	for _, threads := range []int{1, 4} {
		ix := pli.NewIndex(rel, relation.NullEqualsNull)
		ind := inductor.New(rel.NumCols())
		v := New(ix, ind.Tree(), WithThreads(threads))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := v.Run(ctx, true); !errors.Is(err, context.Canceled) {
			t.Fatalf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
	}
}

// TestRunEmitsValidationLevelEvents checks the per-level events, including
// the stack's work: level 0 and level 1 refine nothing (level 1 reads the
// PLIs in place), a deeper level refines at least once per validated node
// whose prefix the previous node did not share and at most LHS size − 1
// times per node, and every node with an invalid candidate above level 0
// falls back to the direct check. The relation has both kinds of node.
func TestRunEmitsValidationLevelEvents(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	rel := randomRelation(r, 30, 4, 2)
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	ind := inductor.New(rel.NumCols())
	col := &trace.Collector{}
	v := New(ix, ind.Tree(), WithObserver(col))
	if !run(t, v, true).Done {
		t.Fatal("run did not finish")
	}
	events := col.Events()
	if len(events) == 0 {
		t.Fatal("no ValidationLevel events emitted")
	}
	prev := -1
	refinements, fallbacks := 0, 0
	for _, e := range events {
		lv, ok := e.(trace.ValidationLevel)
		if !ok {
			t.Fatalf("unexpected event %#v", e)
		}
		if lv.Level <= prev {
			t.Fatalf("levels out of order: %d after %d", lv.Level, prev)
		}
		if lv.Candidates != lv.Valid+lv.Invalid {
			t.Fatalf("candidate partition broken: %+v", lv)
		}
		switch {
		case lv.Level <= 1 && lv.Refinements != 0,
			lv.Level >= 2 && lv.Validations > 0 && lv.Refinements == 0,
			lv.Level >= 2 && lv.Refinements > lv.Validations*(lv.Level-1):
			t.Fatalf("refinements do not match the level: %+v", lv)
		case lv.Level == 0 && lv.Fallbacks != 0,
			lv.Fallbacks > lv.Validations,
			lv.Level > 0 && lv.Invalid > 0 && lv.Fallbacks == 0:
			t.Fatalf("fallbacks do not match the level: %+v", lv)
		}
		refinements += lv.Refinements
		fallbacks += lv.Fallbacks
		prev = lv.Level
	}
	if refinements == 0 || fallbacks == 0 {
		t.Fatalf("%d refinements and %d fallbacks over the run, want both", refinements, fallbacks)
	}
}

func BenchmarkValidatorExhaustive(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	rel := randomRelation(r, 1000, 8, 4)
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ind := inductor.New(rel.NumCols())
		v := New(ix, ind.Tree())
		if !run(b, v, true).Done {
			b.Fatal("did not finish")
		}
	}
}

// BenchmarkValidateLevels times Validator.Run, from a fresh Validator,
// over the tree that the first sampling round and its induction leave on
// the ncvoter and adult analogs at 1,000 rows, once through the prefix
// partitions (stack) and once through the direct check of every node
// (direct). Every candidate there is valid, so every iteration validates
// the same tree.
func BenchmarkValidateLevels(b *testing.B) {
	for _, name := range []string{"ncvoter", "adult"} {
		ds, err := datasets.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		// The half row keeps float rounding from generating one row short.
		rel := ds.Generate(1000.5 / float64(ds.Rows)).Head(1000)
		if rel.NumRows() != 1000 {
			b.Fatalf("%s: %d rows, want 1000", name, rel.NumRows())
		}
		ix := pli.NewIndex(rel, relation.NullEqualsNull)
		obs, err := sampler.New(ix, sampler.Config{Threads: 1}).Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		ind := inductor.New(rel.NumCols())
		ind.Update(obs)
		for _, path := range []struct {
			name   string
			direct bool
		}{{"stack", false}, {"direct", true}} {
			b.Run(name+"/"+path.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v := New(ix, ind.Tree())
					v.direct = path.direct
					if res := run(b, v, false); !res.Done || res.InvalidFds != 0 {
						b.Fatalf("%+v: a candidate is invalid, so the tree changes between iterations", res)
					}
				}
			})
		}
	}
}

// refinesSink keeps benchmarked results alive.
var refinesSink bitset.Set

// recorder captures the refines calls of a validation run, so benchmarks
// can replay the candidate mix of real levels.
type recorder struct {
	refiner
	calls []refinesCall
}

type refinesCall struct{ lhs, rhss bitset.Set }

func (r *recorder) refines(lhs, rhss bitset.Set) (bitset.Set, []pli.Pair) {
	r.calls = append(r.calls, refinesCall{lhs.Clone(), rhss.Clone()})
	return r.refiner.refines(lhs, rhss)
}

// BenchmarkRefines replays the nodes an exhaustive validation visits on a
// 1000-row analog of letter (17 low-cardinality columns), one sub-benchmark
// per LHS size: 1 scans whole pivot clusters as one group, 2 and more group
// records by their non-pivot cluster ids. One op validates one node.
func BenchmarkRefines(b *testing.B) {
	ds, err := datasets.ByName("letter")
	if err != nil {
		b.Fatal(err)
	}
	rel := ds.Generate(0.05)
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	rec := &recorder{refiner: newChecker(ix)}
	v := New(ix, fdtree.New(rel.NumCols()))
	v.tree.AddRhss(bitset.New(rel.NumCols()), bitset.New(rel.NumCols()).Flip())
	v.checkers = []refiner{rec}
	run(b, v, true)
	for _, size := range []int{1, 2, 3, 5} {
		var calls []refinesCall
		for _, c := range rec.calls {
			if c.lhs.Cardinality() == size {
				calls = append(calls, c)
			}
		}
		b.Run("lhs="+strconv.Itoa(size), func(b *testing.B) {
			if len(calls) == 0 {
				b.Skip("no nodes at this level")
			}
			ck := newChecker(ix)
			for _, c := range calls { // warm the scratch buffers
				ck.refines(c.lhs, c.rhss)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := calls[i%len(calls)]
				refinesSink, _ = ck.refines(c.lhs, c.rhss)
			}
		})
	}
}
