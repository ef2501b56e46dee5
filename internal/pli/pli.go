// Package pli implements position list indexes (PLIs), also known as
// stripped partitions (§5 of the HyFD paper). A PLI groups the records of an
// attribute into equivalence classes ("clusters") by value, omitting
// singleton clusters. PLIs are the common substrate of HyFD and of every
// lattice-traversal baseline: candidate validation, partition intersection
// and the PLI-compressed record matrix all build on them.
package pli

import (
	"hash/maphash"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"hyfd/internal/invariant"
	"hyfd/internal/relation"
)

// Singleton marks, inside a compressed record, an attribute in which the
// record's value is unique (its cluster was stripped).
const Singleton int32 = -1

// PLI is the position list index of a single attribute.
type PLI struct {
	// Attr is the attribute index in the original relation.
	Attr int
	// Clusters holds the record ids of every equivalence class with at
	// least two members, each cluster in ascending record order.
	Clusters [][]int32
	// NumClusters counts all equivalence classes including stripped
	// singletons, i.e. the number of distinct values of the attribute.
	NumClusters int
	// NumRows is the total number of records in the indexed relation.
	NumRows int
}

// Size returns the number of records covered by non-singleton clusters.
func (p *PLI) Size() int {
	n := 0
	for _, c := range p.Clusters {
		n += len(c)
	}
	return n
}

// IsConstant reports whether all records share one value (at most one
// cluster covering every record). Empty or single-row relations count as
// constant: no record pair can disagree.
func (p *PLI) IsConstant() bool {
	return p.NumClusters <= 1
}

// IsUnique reports whether no two records share a value, i.e. the attribute
// is a key.
func (p *PLI) IsUnique() bool {
	return len(p.Clusters) == 0
}

// Build constructs the PLI of attribute attr from cell attr of every row,
// read in place. Under NullNotEqualsNull, every null cell forms its own
// singleton cluster, so nulls never witness an FD violation on the
// left-hand side.
//
// One dictionary pass gives every distinct value a dense id in order of
// first appearance, through an open-addressed table of int32 slots hashed
// under a seed drawn for this build. A count per id, a prefix sum over the
// ids counted at least twice, and one fill pass in row order then place
// every cluster in one flat array. Ids in first-appearance order list the
// clusters by first record and fill each one ascending, so no sort is
// needed and no output depends on the seed.
func Build(attr int, rows [][]string, ns relation.NullSemantics) *PLI {
	return build(attr, rows, ns, false)
}

// build is Build with a test seam: collide sends every value to one slot,
// so each lookup walks the probe chain.
func build(attr int, rows [][]string, ns relation.NullSemantics, collide bool) *PLI {
	var b builder
	return b.build(attr, rows, ns, collide)
}

// builder is the memory of one dictionary pass, kept for the next: slots
// holds id+1 of the value hashed there (0 = empty), ids the dense id of
// every row, or -1 for a null that is its own class, and the bytes of
// distinct value id are arena[offs[id]:offs[id+1]]. A hit is confirmed
// against those bytes, which lie together in first-appearance order,
// rather than through the scattered row of the value's first record.
// Nothing a build returns points into a builder, so BuildAllWith gives
// each worker one to reuse across its attributes.
type builder struct {
	slots, ids []int32
	arena      []byte
	offs       []int
}

// build is Build on the builder's memory, which it grows as needed.
func (b *builder) build(attr int, rows [][]string, ns relation.NullSemantics, collide bool) *PLI {
	n := len(rows)
	size := 1
	for size < 2*n {
		size <<= 1 // load at most one half
	}
	mask := uint64(size - 1)
	hashMask := mask
	if collide {
		hashMask = 0
	}
	seed := maphash.MakeSeed()
	if cap(b.slots) < size {
		b.slots = make([]int32, size)
	}
	if cap(b.ids) < n {
		b.ids = make([]int32, n)
	}
	if cap(b.offs) < n+1 {
		b.offs = make([]int, 0, n+1) // at most n distinct values
	}
	slots, ids := b.slots[:size], b.ids[:n]
	clear(slots)
	arena, offs := b.arena[:0], append(b.offs[:0], 0)
	nulls := 0
	for r, row := range rows {
		v := row[attr]
		if ns == relation.NullNotEqualsNull && v == relation.Null {
			ids[r] = -1
			nulls++
			continue
		}
		slot := maphash.String(seed, v) & hashMask
		for {
			id := slots[slot] - 1
			if id < 0 {
				if len(arena)+len(v) > cap(arena) {
					arena = growArena(arena, len(v), r, n)
				}
				arena = append(arena, v...)
				id = int32(len(offs) - 1)
				offs = append(offs, len(arena))
				slots[slot] = id + 1
				ids[r] = id
				break
			}
			if string(arena[offs[id]:offs[id+1]]) == v {
				ids[r] = id
				break
			}
			slot = (slot + 1) & mask
		}
	}
	b.arena, b.offs = arena, offs
	distinct := int32(len(offs) - 1)
	// The table is done with; its first slots count the rows per id.
	counts := slots[:distinct]
	clear(counts)
	for _, id := range ids {
		if id >= 0 {
			counts[id]++
		}
	}
	// Turn the count of every id seen at least twice into its cluster's
	// start offset; a singleton id gets -1.
	covered, numClusters := int32(0), 0
	for id, c := range counts {
		if c < 2 {
			counts[id] = -1
			continue
		}
		counts[id] = covered
		covered += c
		numClusters++
	}
	p := &PLI{Attr: attr, NumRows: n, NumClusters: int(distinct) + nulls}
	if numClusters > 0 {
		flat := make([]int32, covered)
		for r, id := range ids {
			if id < 0 {
				continue
			}
			if off := counts[id]; off >= 0 {
				flat[off] = int32(r)
				counts[id] = off + 1
			}
		}
		// Each offset now holds its cluster's end, and the clusters lie
		// back to back in id order. Capped subslices keep an append to one
		// cluster from overwriting the next.
		p.Clusters = make([][]int32, 0, numClusters)
		start := int32(0)
		for _, end := range counts {
			if end >= 0 {
				p.Clusters = append(p.Clusters, flat[start:end:end])
				start = end
			}
		}
	}
	if invariant.Enabled {
		assertStripped(p)
	}
	return p
}

// growArena returns arena with room for at least need more bytes, to be
// appended while reading row r of n. The arena's final size is not known
// before the pass, and a pass over the rows to measure it costs more than
// the dictionary pass's own read of them, so the arena grows to the bytes
// stored per row read so far, times n. That is exact for a key column and,
// since it is at most the mean length of the cells read so far times n,
// about the column's own bytes otherwise. It at least doubles, so the
// copies stay linear in the bytes stored.
func growArena(arena []byte, need, r, n int) []byte {
	used := len(arena) + need
	return slices.Grow(arena, max(used*n/(r+1), 2*cap(arena), used)-len(arena))
}

// Options configures preprocessing (BuildAllWith, NewIndexWith).
type Options struct {
	// Threads is the worker count for per-attribute PLI construction and
	// compressed-record inversion; 1 builds sequentially, any value <= 0
	// picks runtime.GOMAXPROCS(0). Per-attribute construction is fully
	// independent and each attribute's output is deterministic, so every
	// thread count yields bit-for-bit identical PLIs, records and order.
	Threads int
	// OnBuild, when non-nil, receives every attribute's finished PLI and
	// its build latency. With Threads > 1 it is called concurrently from
	// worker goroutines; callers needing ordered delivery should record
	// into a per-attribute slot (PLI.Attr) and replay afterwards.
	OnBuild func(p *PLI, d time.Duration)
}

// threadCount resolves the configured worker count: <= 0 means all CPUs.
func (o Options) threadCount() int {
	if o.Threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Threads
}

// BuildAll constructs one PLI per attribute of the relation, sequentially.
func BuildAll(rel *relation.Relation, ns relation.NullSemantics) []*PLI {
	return BuildAllWith(rel, ns, Options{Threads: 1})
}

// BuildAllWith constructs one PLI per attribute of the relation, fanning
// the attributes out over a worker pool. The result is identical to the
// sequential build for every thread count. Each worker builds its
// attributes on one builder, so the dictionary's memory is allocated once
// per worker rather than once per attribute.
func BuildAllWith(rel *relation.Relation, ns relation.NullSemantics, opts Options) []*PLI {
	plis := make([]*PLI, rel.NumCols())
	threads := opts.threadCount()
	builders := make([]builder, max(min(threads, len(plis)), 1))
	forEachAttr(len(plis), threads, func(w, a int) {
		start := time.Time{}
		if opts.OnBuild != nil {
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			start = time.Now()
		}
		plis[a] = builders[w].build(a, rel.Rows, ns, false)
		if opts.OnBuild != nil {
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			opts.OnBuild(plis[a], time.Since(start))
		}
	})
	return plis
}

// ForEachAttr runs f(a) for every attribute a in [0, m) on a pool of up to
// threads workers; threads <= 1 runs them in order on the caller's
// goroutine. Work partitions by attribute, so when f(a) writes only state
// of attribute a, every thread count yields identical results.
func ForEachAttr(m, threads int, f func(a int)) {
	forEachAttr(m, threads, func(_, a int) { f(a) })
}

// forEachAttr is ForEachAttr that also passes f the index w of the worker
// running it, in [0, min(threads, m)), so f can keep scratch per worker.
func forEachAttr(m, threads int, f func(w, a int)) {
	if threads > m {
		threads = m
	}
	if threads <= 1 {
		for a := 0; a < m; a++ {
			f(0, a)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := range work {
				f(w, a)
			}
		}(w)
	}
	for a := 0; a < m; a++ {
		work <- a
	}
	close(work)
	wg.Wait()
}

// Index bundles the per-attribute PLIs with the PLI-compressed records the
// Preprocessor produces (Alg. 1). Records is one row-major matrix of
// NumRows × NumCols cells: Row(r)[a] is the id of record r's cluster in
// attribute a, or Singleton if the record's value is unique in a. Order
// lists attribute indices sorted by descending NumClusters, the sortation
// the paper uses both to pick sampling sort keys and to choose the pivot
// PLI during validation.
type Index struct {
	Plis    []*PLI
	Records []int32
	Order   []int
	NumRows int
	NumCols int
}

// Row returns the compressed record r, NumCols cells long. Its capacity is
// capped too, so an append to it cannot overwrite the next record.
func (ix *Index) Row(r int) []int32 {
	m := ix.NumCols
	return ix.Records[r*m : r*m+m : r*m+m]
}

// NewIndex preprocesses a relation into PLIs and compressed records,
// sequentially.
func NewIndex(rel *relation.Relation, ns relation.NullSemantics) *Index {
	return NewIndexWith(rel, ns, Options{Threads: 1})
}

// NewIndexWith preprocesses a relation into PLIs and compressed records
// with a worker pool (Alg. 1, parallelized per attribute). Both the PLI
// build and the record inversion partition their work by attribute, so the
// index is bit-for-bit identical across thread counts.
func NewIndexWith(rel *relation.Relation, ns relation.NullSemantics, opts Options) *Index {
	return Assemble(BuildAllWith(rel, ns, opts), rel.NumRows(), nil, opts.threadCount())
}

// Assemble bundles the PLIs of numRows records into an Index: it inverts
// them into a fresh record matrix and sorts Order. The records prefix holds
// are copied instead of inverted: prefix is the matrix of an index whose
// records keep their ids and cluster ids in plis, as an insert-only delta's
// parent does. The remaining records have the highest ids, so they sit at
// the tail of every ascending cluster, and only that tail is walked.
// Inversion runs one attribute per worker, up to threads, and workers write
// disjoint cells, so the index is identical for every thread count.
func Assemble(plis []*PLI, numRows int, prefix []int32, threads int) *Index {
	m := len(plis)
	ix := &Index{Plis: plis, NumRows: numRows, NumCols: m}
	ix.Records = make([]int32, numRows*m)
	copy(ix.Records, prefix)
	from := 0
	if m > 0 {
		from = len(prefix) / m
	}
	tail := ix.Records[from*m:]
	for i := range tail {
		tail[i] = Singleton
	}
	ForEachAttr(m, threads, func(a int) {
		for cid, cluster := range plis[a].Clusters {
			for i := len(cluster) - 1; i >= 0 && int(cluster[i]) >= from; i-- {
				ix.Records[int(cluster[i])*m+a] = int32(cid)
			}
		}
	})
	ix.Order = make([]int, m)
	for a := range ix.Order {
		ix.Order[a] = a
	}
	sort.SliceStable(ix.Order, func(i, j int) bool {
		return plis[ix.Order[i]].NumClusters > plis[ix.Order[j]].NumClusters
	})
	return ix
}

// Rank returns, for every attribute, its position in Order. Attributes with
// more clusters (more distinct values) have lower ranks.
func (ix *Index) Rank() []int {
	rank := make([]int, ix.NumCols)
	for pos, a := range ix.Order {
		rank[a] = pos
	}
	return rank
}

// Pair is an ordered pair of record ids. The Validator reports pairs that
// violated FD candidates as comparison suggestions for the Sampler.
type Pair struct {
	A, B int32
}
