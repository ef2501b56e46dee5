package pli

import "hyfd/internal/invariant"

// Partition is a stripped partition over an arbitrary attribute set. The
// lattice-traversal baselines (TANE, FUN, FD_Mine, DFD) and the ucc and afd
// searches build partitions of growing attribute sets by refinement and
// cache them. HyFD's validator refines too, but keeps no cache: each worker
// holds only the partitions of the current LHS's prefixes, written by
// RefineInto into buffers it reuses.
type Partition struct {
	Clusters [][]int32
	NumRows  int
}

// PartitionOf converts a single-attribute PLI into a Partition. Cluster
// slices are shared with the PLI and must not be mutated.
func PartitionOf(p *PLI) *Partition {
	return &Partition{Clusters: p.Clusters, NumRows: p.NumRows}
}

// Size returns the number of records in non-singleton clusters.
func (p *Partition) Size() int {
	n := 0
	for _, c := range p.Clusters {
		n += len(c)
	}
	return n
}

// Error returns ||π|| − |π| over non-singleton clusters: the minimum number
// of records to remove so the partitioned attribute set becomes a key. TANE
// uses e(X) = e(XA) as its FD validity criterion.
func (p *Partition) Error() int {
	return p.Size() - len(p.Clusters)
}

// RefinesConstant reports whether the partition has at most one cluster
// covering all records, i.e. the attribute set is constant.
func (p *Partition) RefinesConstant() bool {
	if len(p.Clusters) == 0 {
		return p.NumRows <= 1
	}
	return len(p.Clusters) == 1 && len(p.Clusters[0]) == p.NumRows
}

// Refiner computes partition products through the PLI-compressed records:
// it splits every cluster of π(X) by the records' cluster ids in one more
// attribute, so a product costs one pass over π(X) and never reads the
// other operand's clusters. It keeps its scratch between calls and is not
// safe for concurrent use; create one per goroutine.
type Refiner struct {
	ix *Index
	// counts is indexed by a cluster id of the refining attribute. It is
	// all zero between clusters: each cluster resets the ids it touched.
	counts []int32
	// ids holds the current cluster's cell ids and touched the ids it
	// counted, in first-record order; flat and ends are the buffers Refine
	// passes to RefineInto.
	ids, touched, flat, ends []int32
}

// NewRefiner returns a Refiner over the index's records.
func NewRefiner(ix *Index) *Refiner {
	widest := 0
	for _, p := range ix.Plis {
		widest = max(widest, len(p.Clusters))
	}
	return &Refiner{ix: ix, counts: make([]int32, widest)}
}

// Refine returns π(X ∪ {a}) given p = π(X): within every cluster of p, the
// records that share a cluster of attribute a. A record whose value is
// unique in a (Singleton) is a singleton of the product and is skipped.
// The product lists its clusters by parent cluster first, then by first
// record, each in ascending record order, in one exact-size array that the
// clusters slice with capped capacity. The cost is O(||p||), and p is only
// read.
func (rf *Refiner) Refine(p *Partition, a int) *Partition {
	rf.flat, rf.ends = rf.RefineInto(rf.flat[:0], rf.ends[:0], p.Clusters, a)
	flat, ends := rf.flat, rf.ends
	out := &Partition{NumRows: p.NumRows}
	if len(ends) > 0 {
		exact := make([]int32, len(flat))
		copy(exact, flat)
		out.Clusters = make([][]int32, len(ends))
		start := int32(0)
		for i, end := range ends {
			out.Clusters[i] = exact[start:end:end]
			start = end
		}
	}
	return out
}

// RefineInto writes π(X ∪ {a}), given the clusters of π(X), into buffers
// the caller owns: it appends the product's clusters to flat back to back,
// in Refine's order, and each cluster's end offset in flat to ends, and
// returns both. Callers that refine often pass the same buffers back in,
// so a warm product allocates nothing. clusters is only read.
func (rf *Refiner) RefineInto(flat, ends []int32, clusters [][]int32, a int) ([]int32, []int32) {
	m, recs := rf.ix.NumCols, rf.ix.Records
	counts := rf.counts
	from, firstEnd := int32(len(flat)), len(ends)
	ids, touched := rf.ids, rf.touched
	for _, cluster := range clusters {
		if len(cluster) == 2 {
			// A pair survives whole or not at all.
			if id := recs[int(cluster[0])*m+a]; id != Singleton && id == recs[int(cluster[1])*m+a] {
				flat = append(flat, cluster[0], cluster[1])
				ends = append(ends, int32(len(flat)))
			}
			continue
		}
		ids, touched = ids[:0], touched[:0]
		for _, r := range cluster {
			id := recs[int(r)*m+a]
			ids = append(ids, id)
			if id == Singleton {
				continue
			}
			if counts[id] == 0 {
				touched = append(touched, id)
			}
			counts[id]++
		}
		// Turn each count of at least two into its group's write offset
		// in flat, plus one; a group of one gets 0 and is not written.
		base := int32(len(flat))
		next := base
		for _, id := range touched {
			if c := counts[id]; c >= 2 {
				counts[id] = next + 1
				next += c
				ends = append(ends, next)
			} else {
				counts[id] = 0
			}
		}
		if next > base {
			flat = append(flat, make([]int32, next-base)...)
			for i, id := range ids {
				if id == Singleton {
					continue
				}
				if w := counts[id]; w > 0 {
					flat[w-1] = cluster[i]
					counts[id] = w + 1
				}
			}
		}
		for _, id := range touched {
			counts[id] = 0
		}
	}
	rf.ids, rf.touched = ids, touched
	if invariant.Enabled {
		assertRefined(clusters, flat, ends[firstEnd:], from, rf.ix.NumRows)
	}
	return flat, ends
}
