package pli

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"hyfd/internal/relation"
)

// classRelation is the paper's §5 running example:
// (Brown,Math),(Walker,Math),(Brown,English),(Miller,English),(Brown,Math).
func classRelation() *relation.Relation {
	r := relation.New("class", []string{"Teacher", "Subject"})
	r.AppendRow([]string{"Brown", "Math"})
	r.AppendRow([]string{"Walker", "Math"})
	r.AppendRow([]string{"Brown", "English"})
	r.AppendRow([]string{"Miller", "English"})
	r.AppendRow([]string{"Brown", "Math"})
	return r
}

func TestBuildPaperExample(t *testing.T) {
	rel := classRelation()
	// Paper uses 1-based tuple ids; we use 0-based record ids.
	teacher := Build(0, rel.Rows, relation.NullEqualsNull)
	if len(teacher.Clusters) != 1 {
		t.Fatalf("π{Teacher} clusters = %v", teacher.Clusters)
	}
	if got := teacher.Clusters[0]; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("π{Teacher} = %v, want [0 2 4]", got)
	}
	if teacher.NumClusters != 3 { // Brown, Walker, Miller
		t.Fatalf("π{Teacher} NumClusters = %d, want 3", teacher.NumClusters)
	}
	subject := Build(1, rel.Rows, relation.NullEqualsNull)
	if len(subject.Clusters) != 2 {
		t.Fatalf("π{Subject} clusters = %v", subject.Clusters)
	}
	if subject.NumClusters != 2 {
		t.Fatalf("π{Subject} NumClusters = %d, want 2", subject.NumClusters)
	}
}

func TestBuildNullSemantics(t *testing.T) {
	col := []string{relation.Null, relation.Null, "x"}
	eq := Build(0, columnRows(0, col), relation.NullEqualsNull)
	if len(eq.Clusters) != 1 || len(eq.Clusters[0]) != 2 {
		t.Fatalf("null=null clusters = %v", eq.Clusters)
	}
	if eq.NumClusters != 2 {
		t.Fatalf("null=null NumClusters = %d, want 2", eq.NumClusters)
	}
	ne := Build(0, columnRows(0, col), relation.NullNotEqualsNull)
	if len(ne.Clusters) != 0 {
		t.Fatalf("null!=null clusters = %v", ne.Clusters)
	}
	if ne.NumClusters != 3 {
		t.Fatalf("null!=null NumClusters = %d, want 3", ne.NumClusters)
	}
}

func TestConstantAndUnique(t *testing.T) {
	cons := Build(0, columnRows(0, []string{"a", "a", "a"}), relation.NullEqualsNull)
	if !cons.IsConstant() || cons.IsUnique() {
		t.Fatal("constant column misclassified")
	}
	uniq := Build(0, columnRows(0, []string{"a", "b", "c"}), relation.NullEqualsNull)
	if uniq.IsConstant() || !uniq.IsUnique() {
		t.Fatal("unique column misclassified")
	}
	empty := Build(0, columnRows(0, nil), relation.NullEqualsNull)
	if !empty.IsConstant() || !empty.IsUnique() {
		t.Fatal("empty column should be constant and unique")
	}
	if cons.Size() != 3 || uniq.Size() != 0 {
		t.Fatal("Size broken")
	}
}

func TestNewIndexCompressedRecords(t *testing.T) {
	rel := classRelation()
	ix := NewIndex(rel, relation.NullEqualsNull)
	if ix.NumRows != 5 || ix.NumCols != 2 {
		t.Fatalf("dims %dx%d", ix.NumRows, ix.NumCols)
	}
	if len(ix.Records) != ix.NumRows*ix.NumCols {
		t.Fatalf("len(Records) = %d, want %d", len(ix.Records), ix.NumRows*ix.NumCols)
	}
	row := ix.Row
	// Records 0,2,4 share Teacher cluster; record 1 and 3 are singletons.
	if row(0)[0] != row(2)[0] || row(2)[0] != row(4)[0] {
		t.Fatalf("Teacher clusters: %v %v %v", row(0), row(2), row(4))
	}
	if row(1)[0] != Singleton || row(3)[0] != Singleton {
		t.Fatal("singleton Teacher records not marked")
	}
	// Subject: {0,1,4} and {2,3}.
	if row(0)[1] != row(1)[1] || row(0)[1] != row(4)[1] {
		t.Fatal("Math cluster mismatch")
	}
	if row(2)[1] != row(3)[1] || row(2)[1] == row(0)[1] {
		t.Fatal("English cluster mismatch")
	}
	// Row-major: record r's cells are Records[r*NumCols : (r+1)*NumCols].
	want := []int32{0, Singleton, 0, Singleton, 0}
	for r, cid := range want {
		if ix.Records[r*ix.NumCols] != cid {
			t.Fatalf("Records[%d] = %d, want %d (Teacher of record %d)", r*ix.NumCols, ix.Records[r*ix.NumCols], cid, r)
		}
	}
	// Order: Teacher has 3 distinct values, Subject 2 → Teacher first.
	if ix.Order[0] != 0 || ix.Order[1] != 1 {
		t.Fatalf("Order = %v, want [0 1]", ix.Order)
	}
	rank := ix.Rank()
	if rank[0] != 0 || rank[1] != 1 {
		t.Fatalf("Rank = %v", rank)
	}
}

func TestPartitionErrorAndConstant(t *testing.T) {
	rel := classRelation()
	plis := BuildAll(rel, relation.NullEqualsNull)
	pt := PartitionOf(plis[0])
	if pt.Error() != 2 { // cluster of 3 → 3-1
		t.Fatalf("Error = %d, want 2", pt.Error())
	}
	if pt.RefinesConstant() {
		t.Fatal("Teacher is not constant")
	}
	cons := PartitionOf(Build(0, columnRows(0, []string{"a", "a"}), relation.NullEqualsNull))
	if !cons.RefinesConstant() {
		t.Fatal("constant partition not detected")
	}
	single := PartitionOf(Build(0, columnRows(0, []string{"a"}), relation.NullEqualsNull))
	if !single.RefinesConstant() {
		t.Fatal("single-row partition should be constant")
	}
}

// twoColumnIndex indexes the relation of columns a and b.
func twoColumnIndex(a, b []string) *Index {
	rel := relation.New("ab", []string{"A", "B"})
	for i := range a {
		rel.AppendRow([]string{a[i], b[i]})
	}
	return NewIndex(rel, relation.NullEqualsNull)
}

func TestRefinePaperExample(t *testing.T) {
	rel := classRelation()
	ix := NewIndex(rel, relation.NullEqualsNull)
	prod := NewRefiner(ix).Refine(PartitionOf(ix.Plis[0]), 1)
	// π{Teacher,Subject} = {{0,4}} (paper: {{1,5}} 1-based).
	if len(prod.Clusters) != 1 {
		t.Fatalf("product clusters = %v", prod.Clusters)
	}
	got := append([]int32(nil), prod.Clusters[0]...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("product cluster = %v, want [0 4]", got)
	}
}

func TestRefineCommutes(t *testing.T) {
	seed := int64(42)
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 25; trial++ {
		n := 30 + r.Intn(40)
		colA := make([]string, n)
		colB := make([]string, n)
		for i := 0; i < n; i++ {
			colA[i] = string(rune('a' + r.Intn(4)))
			colB[i] = string(rune('a' + r.Intn(4)))
		}
		ix := twoColumnIndex(colA, colB)
		ref := NewRefiner(ix)
		ab := ref.Refine(PartitionOf(ix.Plis[0]), 1)
		ba := ref.Refine(PartitionOf(ix.Plis[1]), 0)
		if ab.Error() != ba.Error() || ab.Size() != ba.Size() || len(ab.Clusters) != len(ba.Clusters) {
			t.Fatalf("trial %d: refinement not commutative: %v vs %v", trial, ab, ba)
		}
		// Compare normalized cluster sets.
		if normalize(ab) != normalize(ba) {
			t.Fatalf("trial %d: clusters differ", trial)
		}
	}
}

// TestRefineOrderAndCapacity pins the documented layout of a product: its
// clusters are listed by parent cluster, then by first record, each
// ascending, and an append to one cluster cannot overwrite the next.
func TestRefineOrderAndCapacity(t *testing.T) {
	// A groups {0,2,3,5,6} and {1,4,7}; B splits them into {0,5} {2,3,6}
	// and {1,4}, with 7 a singleton in B.
	colA := []string{"x", "y", "x", "x", "y", "x", "x", "y"}
	colB := []string{"p", "q", "r", "r", "q", "p", "r", "s"}
	ix := twoColumnIndex(colA, colB)
	prod := NewRefiner(ix).Refine(PartitionOf(ix.Plis[0]), 1)
	want := [][]int32{{0, 5}, {2, 3, 6}, {1, 4}}
	if !reflect.DeepEqual(prod.Clusters, want) {
		t.Fatalf("clusters = %v, want %v", prod.Clusters, want)
	}
	for i, c := range prod.Clusters {
		if cap(c) != len(c) {
			t.Fatalf("cluster %d has capacity %d beyond its length %d", i, cap(c), len(c))
		}
	}
	_ = append(prod.Clusters[0], 99)
	if !reflect.DeepEqual(prod.Clusters[1], want[1]) {
		t.Fatalf("an append to cluster 0 overwrote cluster 1: %v", prod.Clusters[1])
	}
}

func normalize(p *Partition) string {
	cls := make([]string, 0, len(p.Clusters))
	for _, c := range p.Clusters {
		cc := append([]int32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		s := ""
		for _, r := range cc {
			s += string(rune(r)) + ","
		}
		cls = append(cls, s)
	}
	sort.Strings(cls)
	out := ""
	for _, c := range cls {
		out += c + "|"
	}
	return out
}

// TestQuickRefineAgainstDirect checks the refinement against grouping the
// raw value pairs directly.
func TestQuickRefineAgainstDirect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(60)
		colA := make([]string, n)
		colB := make([]string, n)
		for i := 0; i < n; i++ {
			colA[i] = string(rune('a' + r.Intn(5)))
			colB[i] = string(rune('a' + r.Intn(5)))
		}
		ix := twoColumnIndex(colA, colB)
		prod := NewRefiner(ix).Refine(PartitionOf(ix.Plis[0]), 1)
		// Direct: group by (a,b) pair.
		pairCol := make([]string, n)
		for i := 0; i < n; i++ {
			pairCol[i] = colA[i] + "\x01" + colB[i]
		}
		direct := PartitionOf(Build(0, columnRows(0, pairCol), relation.NullEqualsNull))
		return normalize(prod) == normalize(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceBuild is the map-based PLI build: group the rows of every value
// in a map of growing slices, then sort the clusters by first record.
// Build must reproduce it exactly.
func referenceBuild(attr int, column []string, ns relation.NullSemantics) *PLI {
	groups := make(map[string][]int32, len(column))
	nulls := 0
	for i, v := range column {
		if v == relation.Null && ns == relation.NullNotEqualsNull {
			nulls++
			continue
		}
		groups[v] = append(groups[v], int32(i))
	}
	p := &PLI{Attr: attr, NumRows: len(column), NumClusters: nulls}
	for _, ids := range groups {
		p.NumClusters++
		if len(ids) > 1 {
			p.Clusters = append(p.Clusters, ids)
		}
	}
	sort.Slice(p.Clusters, func(i, j int) bool {
		return p.Clusters[i][0] < p.Clusters[j][0]
	})
	return p
}

// TestQuickBuildMatchesReference checks Build against referenceBuild on
// random columns of 0–500 rows with 1 to n distinct values and 0–30% nulls,
// under both null semantics, with the real hash and with every value
// hashed to one slot.
func TestQuickBuildMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(501)
		distinct := 1 + r.Intn(max(n, 1))
		nullRate := 0.3 * r.Float64()
		col := make([]string, n)
		for i := range col {
			if r.Float64() < nullRate {
				col[i] = relation.Null
				continue
			}
			if v := r.Intn(distinct); v > 0 {
				col[i] = strconv.Itoa(v)
			} // value 0 is the empty string
		}
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			want := referenceBuild(2, col, ns)
			for _, collide := range []bool{false, true} {
				got := build(2, columnRows(2, col), ns, collide)
				if !reflect.DeepEqual(got, want) {
					t.Logf("seed %d, %v, collide %v:\n got %+v\nwant %+v", seed, ns, collide, got, want)
					return false
				}
				for ci, c := range got.Clusters {
					if cap(c) != len(c) {
						t.Logf("seed %d: cluster %d has len %d but cap %d", seed, ci, len(c), cap(c))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocs pins the flat build: a key column must not cost one
// allocation per distinct value.
func TestBuildAllocs(t *testing.T) {
	rows := columnRows(0, keyColumn(10000))
	allocs := testing.AllocsPerRun(10, func() {
		Build(0, rows, relation.NullEqualsNull)
	})
	if allocs > 8 {
		t.Fatalf("Build on a 10,000-row key column: %.0f allocations, want at most 8", allocs)
	}
}

// columnRows lays a column out as cell attr of rows that hold nothing else,
// the input Build reads, cut from one array as the CSV reader cuts them.
func columnRows(attr int, col []string) [][]string {
	w := attr + 1
	cells := make([]string, len(col)*w)
	rows := make([][]string, len(col))
	for i, v := range col {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		rows[i][attr] = v
	}
	return rows
}

// keyColumn returns n distinct values in a shuffled order.
func keyColumn(n int) []string {
	col := make([]string, n)
	for i, v := range rand.New(rand.NewSource(7)).Perm(n) {
		col[i] = strconv.Itoa(v)
	}
	return col
}

// buildSink keeps the benchmarked builds live.
var buildSink *PLI

// BenchmarkBuildPLI builds one 300,000-row column with few, many, and all
// distinct values.
func BenchmarkBuildPLI(b *testing.B) {
	const n = 300000
	r := rand.New(rand.NewSource(7))
	drawn := func(distinct int) []string {
		col := make([]string, n)
		for i := range col {
			col[i] = strconv.Itoa(r.Intn(distinct))
		}
		return col
	}
	for _, bc := range []struct {
		name string
		rows [][]string
	}{
		{"distinct=50", columnRows(0, drawn(50))},
		{"distinct=n/15", columnRows(0, drawn(n/15))},
		{"key", columnRows(0, keyColumn(n))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSink = Build(0, bc.rows, relation.NullEqualsNull)
			}
		})
	}
}

// refineSink keeps BenchmarkRefine's products live.
var refineSink *Partition

// BenchmarkRefine refines one 20-value column of 10,000 rows by another.
func BenchmarkRefine(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	n := 10000
	colA := make([]string, n)
	colB := make([]string, n)
	for i := 0; i < n; i++ {
		colA[i] = string(rune('a' + r.Intn(20)))
		colB[i] = string(rune('a' + r.Intn(20)))
	}
	ix := twoColumnIndex(colA, colB)
	pa := PartitionOf(ix.Plis[0])
	ref := NewRefiner(ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refineSink = ref.Refine(pa, 1)
	}
}
