// Package pli seeds determinism violations: internal/pli is inside the
// determinism scope, so wall-clock reads and unsorted map-range output are
// findings here.
package pli

import (
	"fmt"
	"sort"
	"time"
)

// Timestamp reads the wall clock from a determinism-scoped package.
func Timestamp() int64 {
	return time.Now().Unix() // want "determinism: call to time.Now"
}

// CollectUnsorted leaks map iteration order into its result slice.
func CollectUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "determinism: range over map appends to a slice"
		out = append(out, k)
	}
	return out
}

// CollectSorted is the collect-then-sort idiom: no finding.
func CollectSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PrintAll emits output in randomized map order.
func PrintAll(m map[string]int) {
	for k, v := range m { // want "determinism: range over map emits output"
		fmt.Println(k, v)
	}
}

// TimestampAllowed carries an audited suppression: the raw finding exists
// but must not survive the suppression filter.
func TimestampAllowed() int64 {
	//hyfdvet:allow determinism — corpus fixture for suppression coverage
	return time.Now().Unix()
}

// PLI and Index are corpus stubs of the shared preprocessing artifacts the
// bitsetalias shared-state rule protects: consumer packages must not write
// through accessors returning them.
type PLI struct {
	Attr     int
	Clusters [][]int32
}

// Index bundles the per-attribute PLIs with the compressed records.
type Index struct {
	Plis    []*PLI
	Records [][]int32
	NumRows int
}

// Row hands out one compressed record: shared state under a plain
// []int32 type.
func (ix *Index) Row(r int) []int32 { return ix.Records[r] }

// Build constructs an Index. The owning package writes artifact internals
// freely — it is exempt from the shared-state rule.
func Build(n int) *Index {
	ix := &Index{NumRows: 2}
	for a := 0; a < n; a++ {
		p := &PLI{Attr: a}
		p.Clusters = append(p.Clusters, []int32{0, 1})
		ix.Plis = append(ix.Plis, p)
		ix.Records = append(ix.Records, make([]int32, n))
	}
	return ix
}
