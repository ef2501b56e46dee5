package sampler

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/datasets"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

func buildIndex(rows [][]string, cols []string) *pli.Index {
	rel := relation.New("t", cols)
	for _, r := range rows {
		rel.AppendRow(r)
	}
	return pli.NewIndex(rel, relation.NullEqualsNull)
}

// mustRun executes one sampling round under a background context.
func mustRun(t *testing.T, s *Sampler, suggestions []pli.Pair) []bitset.Set {
	t.Helper()
	obs, err := s.Run(context.Background(), suggestions)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func TestRunCanceledContext(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var rows [][]string
	for i := 0; i < 200; i++ {
		rows = append(rows, []string{
			strconv.Itoa(r.Intn(4)), strconv.Itoa(r.Intn(3)), strconv.Itoa(i % 9),
		})
	}
	for _, threads := range []int{1, 4} {
		ix := buildIndex(rows, []string{"A", "B", "C"})
		s := New(ix, Config{Threads: threads})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.Run(ctx, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
	}
}

func TestFirstRunFindsViolations(t *testing.T) {
	// R(A,B,C): r1(1,2,3), r2(1,4,5) — the paper's §4 example pair.
	ix := buildIndex([][]string{
		{"1", "2", "3"},
		{"1", "4", "5"},
	}, []string{"A", "B", "C"})
	s := New(ix, Config{Threads: 1})
	obs := mustRun(t, s, nil)
	if len(obs) != 1 {
		t.Fatalf("observations = %v", obs)
	}
	if !obs[0].Equal(bitset.FromIndices(3, 0)) {
		t.Fatalf("agree set = %v, want {0}", obs[0])
	}
	if s.Comparisons == 0 || s.seen.Len() != 1 {
		t.Fatalf("telemetry: comps=%d obs=%d", s.Comparisons, s.seen.Len())
	}
}

func TestObservationsAreSoundAgreeSets(t *testing.T) {
	// Every reported observation must correspond to an actual record pair
	// agreement pattern: attributes marked agree, all others differ —
	// verified against the raw data for every window the sampler ran.
	r := rand.New(rand.NewSource(8))
	var rows [][]string
	for i := 0; i < 50; i++ {
		rows = append(rows, []string{
			strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(3)),
			strconv.Itoa(r.Intn(2)), strconv.Itoa(i % 7),
		})
	}
	ix := buildIndex(rows, []string{"A", "B", "C", "D"})
	s := New(ix, Config{Threads: 1})
	obs := mustRun(t, s, nil)
	if len(obs) == 0 {
		t.Fatal("no observations on a 50-row correlated relation")
	}
	// An observed agree-set Y is sound if SOME pair of records agrees
	// exactly on Y. Check by scanning all pairs.
	valid := make(map[string]bool)
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			agree := bitset.New(4)
			for a := 0; a < 4; a++ {
				if rows[i][a] == rows[j][a] {
					agree.Set(a)
				}
			}
			valid[agree.Key()] = true
		}
	}
	for _, o := range obs {
		if !valid[o.Key()] {
			t.Fatalf("observation %v matches no record pair", o)
		}
	}
}

func TestRunDeduplicatesAcrossCalls(t *testing.T) {
	ix := buildIndex([][]string{
		{"1", "2"}, {"1", "3"}, {"1", "4"},
	}, []string{"A", "B"})
	s := New(ix, Config{Threads: 1})
	first := mustRun(t, s, nil)
	if len(first) != 1 { // all pairs agree exactly on {A}
		t.Fatalf("first run = %v", first)
	}
	// Re-running with a suggestion matching the same pattern adds nothing.
	second := mustRun(t, s, []pli.Pair{{A: 0, B: 2}})
	if len(second) != 0 {
		t.Fatalf("second run rediscovered %v", second)
	}
	if s.Threshold() >= DefaultEfficiencyThreshold {
		t.Fatal("threshold was not relaxed on re-entry")
	}
}

func TestSuggestionsProcessedOnReentry(t *testing.T) {
	// Records 0 and 3 share A and B but live in different C clusters, so a
	// window over any single sortation may miss them; a suggestion forces
	// the comparison.
	ix := buildIndex([][]string{
		{"x", "y", "1"},
		{"x", "z", "2"},
		{"w", "y", "3"},
		{"x", "y", "4"},
	}, []string{"A", "B", "C"})
	s := New(ix, Config{Threads: 1})
	mustRun(t, s, nil)
	before := s.seen.Len()
	obs := mustRun(t, s, []pli.Pair{{A: 0, B: 3}})
	// The pair (0,3) agrees exactly on {A,B}; if the first run already saw
	// that pattern the second returns nothing, otherwise exactly it.
	for _, o := range obs {
		if !o.Equal(bitset.FromIndices(3, 0, 1)) {
			t.Fatalf("unexpected observation %v", o)
		}
	}
	if s.seen.Len() < before {
		t.Fatal("observation count regressed")
	}
}

func TestUniqueColumnsYieldNothing(t *testing.T) {
	ix := buildIndex([][]string{
		{"1", "a"}, {"2", "b"}, {"3", "c"},
	}, []string{"A", "B"})
	s := New(ix, Config{Threads: 1})
	obs := mustRun(t, s, nil)
	// No PLI clusters exist, so no pairs are compared and no violations
	// observed.
	if len(obs) != 0 || s.Comparisons != 0 {
		t.Fatalf("obs=%v comps=%d", obs, s.Comparisons)
	}
	// Subsequent runs terminate immediately too.
	if got := mustRun(t, s, nil); len(got) != 0 {
		t.Fatalf("re-run returned %v", got)
	}
}

func TestEmptyRelation(t *testing.T) {
	ix := buildIndex(nil, []string{"A", "B"})
	s := New(ix, Config{Threads: 1})
	if obs := mustRun(t, s, nil); len(obs) != 0 {
		t.Fatalf("obs on empty relation = %v", obs)
	}
}

func TestDuplicateRecordsAgreeEverywhere(t *testing.T) {
	ix := buildIndex([][]string{
		{"1", "2"}, {"1", "2"},
	}, []string{"A", "B"})
	s := New(ix, Config{Threads: 1})
	obs := mustRun(t, s, nil)
	if len(obs) != 1 || !obs[0].Equal(bitset.FromIndices(2, 0, 1)) {
		t.Fatalf("obs = %v, want full agree-set", obs)
	}
}

func TestProgressiveWindowingCoversClusters(t *testing.T) {
	// One big cluster in A; windows must eventually compare distant
	// records when their comparisons keep producing new observations.
	var rows [][]string
	for i := 0; i < 12; i++ {
		rows = append(rows, []string{"same", strconv.Itoa(i / 2), strconv.Itoa(i % 2)})
	}
	ix := buildIndex(rows, []string{"A", "B", "C"})
	s := New(ix, Config{Threads: 1})
	obs := mustRun(t, s, nil)
	// Expected distinct agree patterns containing A: {A}, {A,B}, {A,C},
	// {A,B,C}... which exist depends on data; at minimum {A,B} (adjacent
	// same-B) and {A} or {A,C} patterns appear.
	if len(obs) < 2 {
		t.Fatalf("progressive windowing found only %v", obs)
	}
}

// analog generates a catalog dataset analog at the paper's row count.
func analog(t *testing.T, name string) *relation.Relation {
	t.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d.Generate(1)
}

// distinctAgreeSets computes, by a double loop over the raw rows, the set of
// agree sets of all record pairs under null=null semantics.
func distinctAgreeSets(rel *relation.Relation) map[string]bitset.Set {
	sets := make(map[string]bitset.Set)
	for i := range rel.Rows {
		for j := i + 1; j < len(rel.Rows); j++ {
			agree := bitset.New(rel.NumCols())
			for a := range rel.Rows[i] {
				if rel.Rows[i][a] == rel.Rows[j][a] {
					agree.Set(a)
				}
			}
			sets[agree.Key()] = agree
		}
	}
	return sets
}

// errCtx is a context whose Err turns to Canceled once cancel holds.
type errCtx struct {
	context.Context
	cancel func() bool
}

func (c errCtx) Err() error {
	if c.cancel() {
		return context.Canceled
	}
	return nil
}

// countingCtx is a context whose Err counts its calls and returns nil.
type countingCtx struct {
	context.Context
	calls *atomic.Int64
}

func (c countingCtx) Err() error {
	c.calls.Add(1)
	return nil
}

// TestWindowCancelStride: window runs check the context at least once per
// cancelStride comparisons, inside clusters too, at every thread count. On
// the 50,000-row table A has two clusters and B is a key, so the seeding
// window over A makes all 49,998 comparisons of the round.
func TestWindowCancelStride(t *testing.T) {
	rows := make([][]string, 50000)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i % 2), strconv.Itoa(i)}
	}
	ix := buildIndex(rows, []string{"A", "B"})
	for _, threads := range []int{1, 2} {
		var calls atomic.Int64
		s := New(ix, Config{Threads: threads})
		if _, err := s.Run(countingCtx{context.Background(), &calls}, nil); err != nil {
			t.Fatal(err)
		}
		if s.Comparisons != 49998 || calls.Load() < s.Comparisons/cancelStride {
			t.Fatalf("threads=%d: %d context checks for %d comparisons, want 49,998 comparisons and at least one check per %d",
				threads, calls.Load(), s.Comparisons, cancelStride)
		}
	}
}

// TestAllPairsPass: on tables whose sampling reaches the n(n-1)/2 budget,
// the sampler ends the round with a pass over every record pair. It reports
// all pairs compared, stays within n(n-1) + n comparisons, returns exactly
// the distinct agree sets of all pairs, and returns nothing afterwards.
func TestAllPairsPass(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	random := relation.New("random", []string{"A", "B", "C", "D"})
	for i := 0; i < 40; i++ {
		random.AppendRow([]string{
			strconv.Itoa(r.Intn(2)), strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(2)), strconv.Itoa(r.Intn(4)),
		})
	}
	// 40 binary columns over 30 rows: the seeding windows alone compare
	// more than the 435 pairs, so the budget must be checked before each.
	cols := make([]string, 40)
	for j := range cols {
		cols[j] = "c" + strconv.Itoa(j)
	}
	wide := relation.New("wide", cols)
	for i := 0; i < 30; i++ {
		row := make([]string, len(cols))
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(2))
		}
		wide.AppendRow(row)
	}
	// 64, 65 and 130 columns over 30 rows fill one word, spill one
	// attribute into a second, and spill two into a third. Besides the
	// last column, every fourth from 60 on is a key, whose ids are all
	// Singleton, so that the last, partial word holds some.
	words := func(width int) *relation.Relation {
		cols := make([]string, width)
		for j := range cols {
			cols[j] = "c" + strconv.Itoa(j)
		}
		rel := relation.New("wide"+strconv.Itoa(width), cols)
		for i := 0; i < 30; i++ {
			row := make([]string, width)
			for j := range row {
				if j == width-1 || j >= 60 && j%4 == 0 {
					row[j] = strconv.Itoa(i)
				} else {
					row[j] = strconv.Itoa(r.Intn(2))
				}
			}
			rel.AppendRow(row)
		}
		return rel
	}
	for _, rel := range []*relation.Relation{analog(t, "bridges"), analog(t, "hepatitis"), random, wide, words(64), words(65), words(130)} {
		for _, threads := range []int{1, 3} {
			s := New(pli.NewIndex(rel, relation.NullEqualsNull), Config{Threads: threads})
			obs := mustRun(t, s, nil)
			n := int64(rel.NumRows())
			if !s.AllPairs() {
				t.Fatalf("%s, threads=%d: %d comparisons for %d pairs, but all pairs not compared", rel.Name, threads, s.Comparisons, n*(n-1)/2)
			}
			if s.Comparisons > n*(n-1)+n {
				t.Fatalf("%s, threads=%d: %d comparisons, want at most n(n-1)+n = %d", rel.Name, threads, s.Comparisons, n*(n-1)+n)
			}
			want := distinctAgreeSets(rel)
			got := make(map[string]bool)
			for _, o := range obs {
				if got[o.Key()] {
					t.Fatalf("%s, threads=%d: observation %v returned twice", rel.Name, threads, o)
				}
				got[o.Key()] = true
			}
			if len(got) != len(want) || s.seen.Len() != len(want) {
				t.Fatalf("%s, threads=%d: %d observations (%d seen), want the %d distinct agree sets", rel.Name, threads, len(got), s.seen.Len(), len(want))
			}
			for k, agree := range want {
				if !got[k] {
					t.Fatalf("%s, threads=%d: agree set %v missing", rel.Name, threads, agree)
				}
			}
			comps := s.Comparisons
			if later := mustRun(t, s, []pli.Pair{{A: 0, B: 1}}); len(later) != 0 || s.Comparisons != comps || !s.AllPairs() {
				t.Fatalf("%s, threads=%d: run after the pass returned %v and compared %d pairs", rel.Name, threads, later, s.Comparisons-comps)
			}
		}
	}
}

// TestAllPairsPassCanceled: a context canceled during the pass returns its
// error and leaves the flag unset. No window run starts at or above the
// budget and one window compares fewer than n pairs, so only the pass
// reaches budget + n comparisons; the pass over bridges' 5778 pairs then
// checks the context again after cancelStride comparisons.
func TestAllPairsPassCanceled(t *testing.T) {
	rel := analog(t, "bridges")
	n := int64(rel.NumRows())
	if n*(n-1)/2 <= n+cancelStride {
		t.Fatalf("%d rows are too few to cancel the pass midway", n)
	}
	for _, threads := range []int{1, 3} {
		s := New(pli.NewIndex(rel, relation.NullEqualsNull), Config{Threads: threads})
		ctx := errCtx{context.Background(), func() bool { return s.Comparisons >= s.budget+n }}
		if _, err := s.Run(ctx, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
		if s.AllPairs() || s.Comparisons < s.budget+n {
			t.Fatalf("threads=%d: canceled after %d comparisons (budget %d), all pairs %v", threads, s.Comparisons, s.budget, s.AllPairs())
		}
	}
}

// TestBudgetNotReached: a table whose sampling stops below the budget keeps
// the windowed search alone. The 1000-row ncvoter analog stops at 49,461 of
// its 499,500 pairs.
func TestBudgetNotReached(t *testing.T) {
	rel := analog(t, "ncvoter")
	for _, threads := range []int{1, 2} {
		s := New(pli.NewIndex(rel, relation.NullEqualsNull), Config{Threads: threads})
		obs := mustRun(t, s, nil)
		if s.AllPairs() || s.Comparisons != 49461 || s.Windows != 190 || len(obs) != 740 {
			t.Fatalf("threads=%d: all pairs %v, %d comparisons, %d windows, %d observations; want false, 49461, 190, 740",
				threads, s.AllPairs(), s.Comparisons, s.Windows, len(obs))
		}
	}
}

// TestParallelSamplingMatchesSequential: every thread count yields the same
// comparisons and the same observations in the same order, also over a
// universe wider than one bitset word. The narrow table stops below the
// budget; the wide one ends its round with the pass over all pairs. In the
// skewed table one cluster of the first column holds most rows and the
// rest are pairs, so shares straddle clusters unevenly; in the coarse
// table every column has at most three clusters, fewer than the threads.
func TestParallelSamplingMatchesSequential(t *testing.T) {
	narrow := func(r *rand.Rand, i int) []string {
		return []string{
			strconv.Itoa(r.Intn(5)), strconv.Itoa(r.Intn(4)),
			strconv.Itoa(r.Intn(3)), strconv.Itoa(i % 11),
		}
	}
	wide := func(r *rand.Rand, i int) []string {
		row := make([]string, 70)
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(2 + j%4))
		}
		row[69] = strconv.Itoa(i % 13)
		return row
	}
	skewed := func(r *rand.Rand, i int) []string {
		first := "big"
		if i%5 == 0 {
			first = strconv.Itoa(i / 10)
		}
		return []string{first, strconv.Itoa(r.Intn(4)), strconv.Itoa(r.Intn(3)), strconv.Itoa(i % 11)}
	}
	coarse := func(r *rand.Rand, i int) []string {
		return []string{strconv.Itoa(i % 2), strconv.Itoa(i % 3), strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(2))}
	}
	for _, tc := range []struct {
		name     string
		rows     int
		gen      func(*rand.Rand, int) []string
		allPairs bool
	}{
		{"narrow", 120, narrow, false},
		{"wide", 120, wide, true},
		{"skewed", 1000, skewed, false},
		{"coarse", 60, coarse, false},
	} {
		name := tc.name
		r := rand.New(rand.NewSource(19))
		var rows [][]string
		for i := 0; i < tc.rows; i++ {
			rows = append(rows, tc.gen(r, i))
		}
		cols := make([]string, len(rows[0]))
		for j := range cols {
			cols[j] = "c" + strconv.Itoa(j)
		}
		seq := New(buildIndex(rows, cols), Config{Threads: 1})
		seqObs := mustRun(t, seq, nil)
		if seq.AllPairs() != tc.allPairs {
			t.Fatalf("%s: all pairs %v, want %v", name, seq.AllPairs(), tc.allPairs)
		}
		for _, threads := range []int{2, 8} {
			par := New(buildIndex(rows, cols), Config{Threads: threads})
			parObs := mustRun(t, par, nil)
			if seq.AllPairs() != par.AllPairs() || seq.Windows != par.Windows {
				t.Fatalf("%s, %d threads: all pairs %v vs %v, windows %d vs %d", name, threads, seq.AllPairs(), par.AllPairs(), seq.Windows, par.Windows)
			}
			if seq.Comparisons != par.Comparisons {
				t.Fatalf("%s, %d threads: comparison counts differ: %d vs %d", name, threads, seq.Comparisons, par.Comparisons)
			}
			if len(seqObs) != len(parObs) {
				t.Fatalf("%s, %d threads: observation counts differ: %d vs %d", name, threads, len(seqObs), len(parObs))
			}
			for i := range seqObs {
				if !seqObs[i].Equal(parObs[i]) {
					t.Fatalf("%s, %d threads: observation %d differs: %v vs %v", name, threads, i, seqObs[i], parObs[i])
				}
			}
		}
	}
}

// referenceSortation is the comparison sort the counting passes replace:
// every cluster of every attribute sorted on (left id, right id, record),
// the cluster ids of the record in the attribute's neighbors in the
// distinctness order, where a missing neighbor keys 0.
func referenceSortation(ix *pli.Index) [][][]int32 {
	pos := ix.Rank()
	key := func(rec int32, i int) int32 {
		if i < 0 || i >= ix.NumCols {
			return 0
		}
		return ix.Row(int(rec))[ix.Order[i]]
	}
	sorted := make([][][]int32, ix.NumCols)
	for attr, p := range ix.Plis {
		left, right := pos[attr]-1, pos[attr]+1
		for _, cluster := range p.Clusters {
			c := slices.Clone(cluster)
			slices.SortFunc(c, func(x, y int32) int {
				return cmp.Or(cmp.Compare(key(x, left), key(y, left)), cmp.Compare(key(x, right), key(y, right)), cmp.Compare(x, y))
			})
			sorted[attr] = append(sorted[attr], c)
		}
	}
	return sorted
}

// sortationDiff sorts the index's clusters at the given thread count and
// describes the first cluster that differs from want, or returns "".
func sortationDiff(ix *pli.Index, threads int, want [][][]int32) string {
	s := New(ix, Config{Threads: threads})
	if err := s.sortClusters(context.Background()); err != nil {
		return err.Error()
	}
	for attr := range want {
		if len(s.sorted[attr]) != len(want[attr]) {
			return fmt.Sprintf("attr %d: %d clusters, want %d", attr, len(s.sorted[attr]), len(want[attr]))
		}
		for ci, c := range want[attr] {
			if got := s.sorted[attr][ci]; !slices.Equal(got, c) {
				return fmt.Sprintf("attr %d cluster %d: sorted %v, want %v", attr, ci, got, c)
			}
		}
	}
	return ""
}

// TestSortClustersNeighborOrder pins the focused sortation of Fig. 3(1):
// every cluster is its PLI cluster sorted by the record's cluster id in the
// left neighbor of the distinctness order, then the right one, then the
// record id, at every thread count. The inputs cover tiny domains (ties on
// both neighbors are common), a key column as a neighbor (every id -1),
// nulls under both semantics, a table with no neighbors, clusters larger
// than one batch and batches that end inside runs of small clusters
// (including a neighbor with more clusters than sortBatch), and an index
// extended by an insert-only delta, whose clusters are no flat array.
func TestSortClustersNeighborOrder(t *testing.T) {
	table := func(n int, gen func(r *rand.Rand, i int) []string) *relation.Relation {
		r := rand.New(rand.NewSource(23))
		first := gen(r, 0)
		cols := make([]string, len(first))
		for j := range cols {
			cols[j] = "c" + strconv.Itoa(j)
		}
		rel := relation.New("t", cols)
		rel.AppendRow(first)
		for i := 1; i < n; i++ {
			rel.AppendRow(gen(r, i))
		}
		return rel
	}
	tiny := table(300, func(r *rand.Rand, i int) []string {
		return []string{
			strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(4)), strconv.Itoa(r.Intn(7)),
			strconv.Itoa(r.Intn(20)), strconv.Itoa(r.Intn(2)),
		}
	})
	nulls := table(300, func(r *rand.Rand, i int) []string {
		row := []string{strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(5)), strconv.Itoa(r.Intn(9))}
		for j := range row {
			if r.Intn(4) == 0 {
				row[j] = relation.Null
			}
		}
		return row
	})
	large := table(70000, func(r *rand.Rand, i int) []string {
		return []string{strconv.Itoa(i / 2), strconv.Itoa(i % 2), strconv.Itoa(i % 1009), strconv.Itoa(r.Intn(50))}
	})
	base := table(400, func(r *rand.Rand, i int) []string {
		return []string{strconv.Itoa(r.Intn(6)), strconv.Itoa(r.Intn(40)), strconv.Itoa(r.Intn(3))}
	})
	ds, err := dataset.Prepare(context.Background(), base, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	inserts := table(90, func(r *rand.Rand, i int) []string {
		return []string{strconv.Itoa(r.Intn(8)), strconv.Itoa(r.Intn(60)), strconv.Itoa(r.Intn(3))}
	})
	inserted, err := ds.Apply(context.Background(), dataset.Delta{Inserts: inserts.Rows})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ix   *pli.Index
	}{
		{"tiny domains", pli.NewIndex(tiny, relation.NullEqualsNull)},
		{"key neighbor", pli.NewIndex(table(200, func(r *rand.Rand, i int) []string {
			return []string{strconv.Itoa(i), strconv.Itoa(r.Intn(4)), strconv.Itoa(r.Intn(3))}
		}), relation.NullEqualsNull)},
		{"nulls equal", pli.NewIndex(nulls, relation.NullEqualsNull)},
		{"nulls distinct", pli.NewIndex(nulls, relation.NullNotEqualsNull)},
		{"one column", pli.NewIndex(table(100, func(r *rand.Rand, i int) []string {
			return []string{strconv.Itoa(r.Intn(9))}
		}), relation.NullEqualsNull)},
		{"larger than a batch", pli.NewIndex(large, relation.NullEqualsNull)},
		{"insert-only delta", inserted.Index()},
	} {
		want := referenceSortation(tc.ix)
		for _, threads := range []int{1, 2, 8} {
			if diff := sortationDiff(tc.ix, threads, want); diff != "" {
				t.Fatalf("%s, threads=%d: %s", tc.name, threads, diff)
			}
		}
	}
}

// TestDuplicateMatchAllocs pins the reusable agree-set scratch: comparing a
// pair whose agree set was already observed allocates nothing, and a new
// observation does not alias the scratch. The two pairs alternate, so no
// comparison repeats the agree set before it and each one is looked up.
func TestDuplicateMatchAllocs(t *testing.T) {
	ix := buildIndex([][]string{
		{"1", "2", "3"},
		{"1", "4", "3"},
		{"1", "2", "5"},
	}, []string{"A", "B", "C"})
	s := New(ix, Config{Threads: 1})
	var obs []bitset.Set
	s.match(0, 1, &obs)
	s.match(0, 2, &obs)
	if n := testing.AllocsPerRun(100, func() { s.match(0, 1, &obs); s.match(0, 2, &obs) }); n != 0 {
		t.Fatalf("duplicate comparisons allocated %v times, want 0", n)
	}
	if len(obs) != 2 || !obs[0].Equal(bitset.FromIndices(3, 0, 2)) || !obs[1].Equal(bitset.FromIndices(3, 0, 1)) {
		t.Fatalf("observations = %v, want [{0,2} {0,1}]", obs)
	}
	if s.Comparisons != 204 || s.seen.Len() != 2 { // AllocsPerRun adds a warm-up call
		t.Fatalf("comparisons = %d, observations = %d", s.Comparisons, s.seen.Len())
	}
}

func BenchmarkSamplerRun(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	var rows [][]string
	for i := 0; i < 2000; i++ {
		rows = append(rows, []string{
			strconv.Itoa(r.Intn(50)), strconv.Itoa(r.Intn(20)),
			strconv.Itoa(r.Intn(10)), strconv.Itoa(r.Intn(5)),
			strconv.Itoa(i), strconv.Itoa(r.Intn(100)),
		})
	}
	ix := buildIndex(rows, []string{"A", "B", "C", "D", "E", "F"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(ix, Config{Threads: 1})
		s.Run(context.Background(), nil)
	}
}

// longAnalog returns the first rows records of the analog of the perfbench
// long table: six columns, a key plus derived and hierarchy columns over
// domains of 500 to 20,000 values, 2 % noise.
func longAnalog(rows int) *relation.Relation {
	return datasets.GenProfile(rows, 6, 7, 1, 0.5, 0.3, 0.02, 0, 500, 20000, 0)
}

// TestRepeatSkipMatchesLookups: on a 2,000-row cut of the long analog,
// where most window comparisons repeat the agree set of the comparison
// before them, two rounds with the repeat skip return the observations,
// in the same order, and the counts of the sampler that looks every agree
// set up, at every thread count. Eight threads put share boundaries inside
// runs of repeats. Each case runs ten times: the cut's shares are short,
// and repeats let them overlap, so that a last leaking from one share into
// another shows without the race detector too.
func TestRepeatSkipMatchesLookups(t *testing.T) {
	ix := pli.NewIndex(longAnalog(2000), relation.NullEqualsNull)
	suggestions := []pli.Pair{{A: 0, B: 1}, {A: 0, B: 1}, {A: 5, B: 1999}, {A: 7, B: 8}, {A: 7, B: 8}}
	type round struct {
		obs            []bitset.Set
		comps, windows int64
	}
	runs := func(threads int, lookupRepeats bool) []round {
		s := New(ix, Config{Threads: threads})
		s.lookupRepeats = lookupRepeats
		var rounds []round
		for _, sug := range [][]pli.Pair{nil, suggestions} {
			rounds = append(rounds, round{mustRun(t, s, sug), s.Comparisons, s.Windows})
		}
		if s.AllPairs() {
			t.Fatalf("threads=%d: the cut reached the all-pairs budget", threads)
		}
		return rounds
	}
	want := runs(1, true)
	if len(want[0].obs) == 0 || len(want[1].obs) == 0 {
		t.Fatalf("rounds found %d and %d observations, want some in each", len(want[0].obs), len(want[1].obs))
	}
	for _, threads := range []int{1, 2, 3, 8} {
		for _, lookupRepeats := range []bool{false, true} {
			for rep := 0; rep < 10; rep++ {
				got := runs(threads, lookupRepeats)
				for r := range want {
					g, w := got[r], want[r]
					if g.comps != w.comps || g.windows != w.windows || !slices.EqualFunc(g.obs, w.obs, bitset.Set.Equal) {
						t.Fatalf("threads=%d skip %v round %d: %d comparisons, %d windows, observations %v; want %d, %d, %v",
							threads, !lookupRepeats, r, g.comps, g.windows, g.obs, w.comps, w.windows, w.obs)
					}
				}
			}
		}
	}
	// The premise: most comparisons of the seeding windows (window 2 over
	// every attribute's sortation) repeat the agree set before them.
	s := New(ix, Config{Threads: 1})
	if err := s.sortClusters(context.Background()); err != nil {
		t.Fatal(err)
	}
	cur, prev := bitset.New(ix.NumCols), bitset.New(ix.NumCols)
	comps, repeats := 0, 0
	for _, clusters := range s.sorted {
		for _, cluster := range clusters {
			for i := 0; i+1 < len(cluster); i++ {
				pli.AgreeSet(cur, ix.Row(int(cluster[i])), ix.Row(int(cluster[i+1])))
				if comps > 0 && cur.Equal(prev) {
					repeats++
				}
				comps++
				prev.CopyFrom(cur)
			}
		}
	}
	if 2*repeats <= comps {
		t.Fatalf("%d of %d seeding comparisons repeat the agree set before them, want most", repeats, comps)
	}
}

// BenchmarkSamplerWindows times the first Run, the sortation and the
// windows of the first round, on a 100,000-row cut of the long analog at
// 1 and 2 threads.
func BenchmarkSamplerWindows(b *testing.B) {
	ix := pli.NewIndex(longAnalog(100000), relation.NullEqualsNull)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New(ix, Config{Threads: threads})
				b.StartTimer()
				if _, err := s.Run(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSamplerShort times the first Run at one thread, the sortation
// and the whole first round, on the short-table analogs at the row counts
// of the benchmark's short-tables and serve-stream workloads; hepatitis and
// breast-cancer keep the paper's size. Letter's round ends with the pass
// over all pairs.
func BenchmarkSamplerShort(b *testing.B) {
	for _, tc := range []struct {
		name string
		rows int
	}{
		{"ncvoter", 1000}, {"adult", 1000}, {"letter", 1000},
		{"hepatitis", 0}, {"breast-cancer", 0}, {"abalone", 2000},
	} {
		d, err := datasets.ByName(tc.name)
		if err != nil {
			b.Fatal(err)
		}
		rel := d.Generate(1)
		if tc.rows > 0 {
			// The half row keeps rounding from generating one row short.
			rel = d.Generate((float64(tc.rows) + 0.5) / float64(d.Rows)).Head(tc.rows)
		}
		ix := pli.NewIndex(rel, relation.NullEqualsNull)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New(ix, Config{Threads: 1})
				b.StartTimer()
				if _, err := s.Run(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortClusters times the focused sortation of every attribute at
// one thread, on a 100,000-row cut of the long analog.
func BenchmarkSortClusters(b *testing.B) {
	ix := pli.NewIndex(longAnalog(100000), relation.NullEqualsNull)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New(ix, Config{Threads: 1}).sortClusters(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
