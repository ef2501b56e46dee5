package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
	"hyfd/internal/trace"
)

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

func TestDiscoverClassExample(t *testing.T) {
	rel := relation.New("class", []string{"Teacher", "Subject", "Room"})
	rel.AppendRow([]string{"Brown", "Math", "R1"})
	rel.AppendRow([]string{"Walker", "Math", "R2"})
	rel.AppendRow([]string{"Brown", "English", "R1"})
	rel.AppendRow([]string{"Miller", "English", "R3"})
	rel.AppendRow([]string{"Brown", "Math", "R1"})
	got, stats, err := Discover(context.Background(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	if !got.Equal(want) {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if !stats.Complete || stats.FDCount != got.Size() {
		t.Fatalf("stats inconsistent: %+v", stats)
	}
}

func TestDiscoverMatchesBruteForceTable(t *testing.T) {
	r := rand.New(rand.NewSource(2016))
	cases := []struct {
		rows, cols, domain int
	}{
		{1, 3, 2}, {2, 2, 2}, {10, 3, 2}, {20, 4, 2}, {20, 4, 5},
		{50, 5, 2}, {50, 5, 3}, {100, 5, 4}, {30, 6, 2}, {60, 6, 3},
		{120, 7, 2}, {120, 7, 6}, {200, 6, 10}, {17, 5, 17},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("r%dc%dd%d", c.rows, c.cols, c.domain), func(t *testing.T) {
			rel := randomRelation(r, c.rows, c.cols, c.domain)
			got, _, err := Discover(context.Background(), rel, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := fd.BruteForce(rel, relation.NullEqualsNull)
			if !got.Equal(want) {
				t.Fatalf("rows=%d cols=%d dom=%d\nmissing: %v\nextra: %v",
					c.rows, c.cols, c.domain, want.Diff(got), got.Diff(want))
			}
		})
	}
}

func TestDiscoverEdgeCases(t *testing.T) {
	t.Run("empty relation", func(t *testing.T) {
		rel := relation.New("e", []string{"A", "B"})
		got, stats, err := Discover(context.Background(), rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != 2 { // ∅→A, ∅→B hold vacuously
			t.Fatalf("FDs on empty relation = %d:\n%s", got.Size(), got)
		}
		if stats.Rows != 0 {
			t.Fatalf("stats.Rows = %d", stats.Rows)
		}
	})
	t.Run("zero columns", func(t *testing.T) {
		rel := relation.New("z", nil)
		got, _, err := Discover(context.Background(), rel, Config{})
		if err != nil || got.Size() != 0 {
			t.Fatalf("got %v, err %v", got, err)
		}
	})
	t.Run("single column unique", func(t *testing.T) {
		rel := relation.New("s", []string{"A"})
		rel.AppendRow([]string{"x"})
		rel.AppendRow([]string{"y"})
		got, _, err := Discover(context.Background(), rel, Config{})
		if err != nil || got.Size() != 0 {
			t.Fatalf("got %v, err %v", got, err)
		}
	})
	t.Run("all constant", func(t *testing.T) {
		rel := relation.New("c", []string{"A", "B"})
		rel.AppendRow([]string{"x", "y"})
		rel.AppendRow([]string{"x", "y"})
		got, _, err := Discover(context.Background(), rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.NewSet(2)
		want.Add(fd.FD{Lhs: bitset.New(2), Rhs: 0})
		want.Add(fd.FD{Lhs: bitset.New(2), Rhs: 1})
		if !got.Equal(want) {
			t.Fatalf("got:\n%s", got)
		}
	})
	t.Run("duplicate rows", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		rel := randomRelation(r, 20, 4, 3)
		rel.Rows = append(rel.Rows, rel.Rows[:10]...)
		got, _, err := Discover(context.Background(), rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.BruteForce(rel, relation.NullEqualsNull)
		if !got.Equal(want) {
			t.Fatalf("missing: %v\nextra: %v", want.Diff(got), got.Diff(want))
		}
	})
	t.Run("nil relation", func(t *testing.T) {
		if _, _, err := Discover(context.Background(), nil, Config{}); err == nil {
			t.Fatal("nil relation accepted")
		}
	})
	t.Run("invalid relation", func(t *testing.T) {
		rel := relation.New("d", []string{"A", "A"})
		if _, _, err := Discover(context.Background(), rel, Config{}); err == nil {
			t.Fatal("duplicate column names accepted")
		}
	})
}

func TestDiscoverWithKeyColumn(t *testing.T) {
	// A key column makes every other attribute dependent on it.
	rel := relation.New("k", []string{"ID", "X", "Y"})
	for i := 0; i < 30; i++ {
		rel.AppendRow([]string{strconv.Itoa(i), strconv.Itoa(i % 3), strconv.Itoa(i % 2)})
	}
	got, _, err := Discover(context.Background(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(fd.FD{Lhs: bitset.FromIndices(3, 0), Rhs: 1}) ||
		!got.Contains(fd.FD{Lhs: bitset.FromIndices(3, 0), Rhs: 2}) {
		t.Fatalf("key FDs missing:\n%s", got)
	}
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	if !got.Equal(want) {
		t.Fatalf("missing: %v\nextra: %v", want.Diff(got), got.Diff(want))
	}
}

func TestDiscoverNullSemantics(t *testing.T) {
	rel := relation.New("n", []string{"A", "B"})
	rel.AppendRow([]string{relation.Null, "1"})
	rel.AppendRow([]string{relation.Null, "2"})
	rel.AppendRow([]string{"x", "1"})
	for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
		got, _, err := Discover(context.Background(), rel, Config{NullSemantics: ns})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.BruteForce(rel, ns)
		if !got.Equal(want) {
			t.Fatalf("%v: got:\n%s\nwant:\n%s", ns, got, want)
		}
	}
	// The two semantics must actually differ here: A→B only under ⊥≠⊥.
	eq, _, _ := Discover(context.Background(), rel, Config{NullSemantics: relation.NullEqualsNull})
	ne, _, _ := Discover(context.Background(), rel, Config{NullSemantics: relation.NullNotEqualsNull})
	aToB := fd.FD{Lhs: bitset.FromIndices(2, 0), Rhs: 1}
	if eq.Contains(aToB) || !ne.Contains(aToB) {
		t.Fatalf("null semantics not honored: eq=\n%s\nne=\n%s", eq, ne)
	}
}

func TestDiscoverMultiThreadedMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		rel := randomRelation(r, 80, 6, 3)
		single, _, err := Discover(context.Background(), rel, Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		multi, _, err := Discover(context.Background(), rel, Config{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !single.Equal(multi) {
			t.Fatalf("trial %d: parallel result differs:\nsingle:\n%s\nmulti:\n%s",
				trial, single, multi)
		}
	}
}

func TestDiscoverThresholdInsensitivity(t *testing.T) {
	// §10.5: the result must be identical for any threshold; only runtime
	// and switch counts vary.
	r := rand.New(rand.NewSource(99))
	rel := randomRelation(r, 100, 5, 3)
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	for _, th := range []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1.0} {
		got, _, err := Discover(context.Background(), rel, Config{EfficiencyThreshold: th})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("threshold %v: missing: %v extra: %v", th, want.Diff(got), got.Diff(want))
		}
	}
}

func TestDiscoverMaxLhsSize(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rel := randomRelation(r, 40, 6, 2)
	got, stats, err := Discover(context.Background(), rel, Config{MaxLhsSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Complete {
		t.Fatal("bounded run reported complete")
	}
	// Expected: exactly the brute-force FDs with |LHS| <= 2.
	want := fd.NewSet(rel.NumCols())
	for _, f := range fd.BruteForce(rel, relation.NullEqualsNull).All() {
		if f.Lhs.Cardinality() <= 2 {
			want.Add(f)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("missing: %v\nextra: %v", want.Diff(got), got.Diff(want))
	}
}

func TestDiscoverGuardianBudget(t *testing.T) {
	// Wide and short: random binary relations with few rows carry many
	// deep minimal FDs, exactly the regime the Guardian exists for.
	r := rand.New(rand.NewSource(21))
	rel := randomRelation(r, 20, 10, 2)
	got, stats, err := Discover(context.Background(), rel, Config{MemoryBudgetBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Complete {
		t.Fatal("guardian run should report incomplete on a tiny budget")
	}
	// Result must still be sound: every reported FD minimal and valid.
	for _, f := range got.All() {
		if !fd.Holds(rel, relation.NullEqualsNull, f.Lhs, f.Rhs) {
			t.Fatalf("guardian run emitted invalid FD %v", f)
		}
		if f.Lhs.Cardinality() > stats.MaxLhs {
			t.Fatalf("FD %v exceeds final MaxLhs %d", f, stats.MaxLhs)
		}
	}
	// And complete up to the final bound.
	for _, f := range fd.BruteForce(rel, relation.NullEqualsNull).All() {
		if f.Lhs.Cardinality() <= stats.MaxLhs && !got.Contains(f) {
			t.Fatalf("FD %v within bound %d missing", f, stats.MaxLhs)
		}
	}
}

func TestDiscoverStatsTelemetry(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// A key column guarantees FDs, so validation work must happen.
	rel := randomRelation(r, 100, 5, 3)
	for i := range rel.Rows {
		rel.Rows[i][0] = strconv.Itoa(i)
	}
	_, stats, err := Discover(context.Background(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SamplingRounds != stats.PhaseSwitches+1 {
		t.Fatalf("rounds %d, switches %d", stats.SamplingRounds, stats.PhaseSwitches)
	}
	if stats.Comparisons <= 0 || stats.Validations <= 0 {
		t.Fatalf("telemetry empty: %+v", stats)
	}
	if stats.MaxLhs != rel.NumCols() {
		t.Fatalf("MaxLhs = %d", stats.MaxLhs)
	}
}

// TestDiscoverReportsInductionTime: on the FD-rich hepatitis analog,
// induction takes measurable time, and it is a part of sampling's.
func TestDiscoverReportsInductionTime(t *testing.T) {
	d, err := datasets.ByName("hepatitis")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Discover(context.Background(), d.Generate(1), Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InductionTime <= 0 || stats.InductionTime > stats.SamplingTime {
		t.Fatalf("induction %v, sampling %v; want 0 < induction <= sampling",
			stats.InductionTime, stats.SamplingTime)
	}
}

// cutCover returns the FDs of set whose LHS has at most maxLhs attributes.
func cutCover(set *fd.Set, numCols, maxLhs int) *fd.Set {
	out := fd.NewSet(numCols)
	for _, f := range set.All() {
		if f.Lhs.Cardinality() <= maxLhs {
			out.Add(f)
		}
	}
	return out
}

// TestDiscoverAllPairsSkipsValidation: on tables whose sampling spends the
// n(n-1)/2 budget, the sampler compares every pair in round 1 and the run
// returns the induced cover without validating anything. The cover is
// exact, under both null semantics and under an LHS bound.
func TestDiscoverAllPairsSkipsValidation(t *testing.T) {
	for _, name := range []string{"bridges", "echocardiogram"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rel := d.Generate(1)
		for _, tc := range []struct {
			ns     relation.NullSemantics
			maxLhs int
		}{{relation.NullEqualsNull, 0}, {relation.NullNotEqualsNull, 0}, {relation.NullEqualsNull, 2}} {
			var events []trace.Event
			got, stats, err := Discover(context.Background(), rel, Config{
				NullSemantics: tc.ns, MaxLhsSize: tc.maxLhs, Threads: 1,
				Observer: trace.ObserverFunc(func(e trace.Event) { events = append(events, e) }),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := fd.BruteForce(rel, tc.ns)
			if tc.maxLhs > 0 {
				want = cutCover(want, rel.NumCols(), tc.maxLhs)
			}
			if !got.Equal(want) {
				t.Fatalf("%s %v max-lhs %d:\nmissing: %v\nextra: %v", name, tc.ns, tc.maxLhs, want.Diff(got), got.Diff(want))
			}
			if !stats.AllPairs || stats.Validations != 0 || stats.SamplingRounds != 1 || stats.ValidationTime != 0 {
				t.Fatalf("%s %v max-lhs %d: stats %+v, want all pairs in round 1 and no validation", name, tc.ns, tc.maxLhs, stats)
			}
			for _, e := range events {
				if _, ok := e.(trace.PhaseSwitch); ok {
					t.Fatalf("%s %v max-lhs %d: phase switch %+v after the pass over all pairs", name, tc.ns, tc.maxLhs, e)
				}
			}
		}
	}
}

// roundTwoRelation is a 3 × 6 table whose sampling reaches the budget of 3
// pairs only in round 2, after level 0 has been validated.
func roundTwoRelation() *relation.Relation {
	rel := relation.New("round2", []string{"A", "B", "C", "D", "E", "F"})
	rel.AppendRow([]string{"4", "1", "5", "2", "1", "4"})
	rel.AppendRow([]string{"5", "1", "4", "2", "3", "5"})
	rel.AppendRow([]string{"2", "0", "3", "3", "5", "1"})
	return rel
}

// TestDiscoverAllPairsInRoundTwo pins a table whose first round stops
// below the budget of 3 pairs: level 0 fails validation, and the replayed
// suggestions reach the budget, so round 2 compares all pairs and the run
// returns the induced cover without validating level 1.
func TestDiscoverAllPairsInRoundTwo(t *testing.T) {
	rel := roundTwoRelation()
	for _, threads := range []int{1, 2} {
		var rounds []trace.SamplingRound
		var last trace.Event
		got, stats, err := Discover(context.Background(), rel, Config{
			Threads: threads,
			Observer: trace.ObserverFunc(func(e trace.Event) {
				if r, ok := e.(trace.SamplingRound); ok {
					rounds = append(rounds, r)
				}
				if _, ok := e.(trace.Done); !ok {
					last = e
				}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := fd.BruteForce(rel, relation.NullEqualsNull); !got.Equal(want) {
			t.Fatalf("threads=%d:\nmissing: %v\nextra: %v", threads, want.Diff(got), got.Diff(want))
		}
		if len(rounds) != 2 || rounds[0].AllPairs || !rounds[1].AllPairs || rounds[0].Comparisons >= 3 {
			t.Fatalf("threads=%d: rounds %+v, want the first below the budget and the second over all pairs", threads, rounds)
		}
		if _, ok := last.(trace.SamplingRound); !ok {
			t.Fatalf("threads=%d: last event before Done is %T, want the final sampling round", threads, last)
		}
		if !stats.AllPairs || stats.PhaseSwitches != 1 || stats.Validations != 1 || stats.Comparisons != 7 {
			t.Fatalf("threads=%d: stats %+v, want all pairs, 1 switch, 1 validation, 7 comparisons", threads, stats)
		}
	}
}

// TestQuickDiscoverMatchesBruteForce is the central correctness property:
// on arbitrary random relations HyFD returns exactly the brute-force
// minimal FD set.
func TestQuickDiscoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(60)
		cols := 2 + r.Intn(5)
		domain := 1 + r.Intn(5)
		rel := randomRelation(r, rows, cols, domain)
		got, _, err := Discover(context.Background(), rel, Config{})
		if err != nil {
			return false
		}
		return got.Equal(fd.BruteForce(rel, relation.NullEqualsNull))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDiscoverNullSemantics repeats the property under ⊥≠⊥ with null
// injections.
func TestQuickDiscoverNullSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r, 1+r.Intn(40), 2+r.Intn(4), 1+r.Intn(4))
		for i := range rel.Rows {
			for j := range rel.Rows[i] {
				if r.Intn(5) == 0 {
					rel.Rows[i][j] = relation.Null
				}
			}
		}
		ns := relation.NullNotEqualsNull
		if seed%2 == 0 {
			ns = relation.NullEqualsNull
		}
		got, _, err := Discover(context.Background(), rel, Config{NullSemantics: ns})
		if err != nil {
			return false
		}
		return got.Equal(fd.BruteForce(rel, ns))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
