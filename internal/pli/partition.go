package pli

// Partition is a stripped partition over an arbitrary attribute set. The
// lattice-traversal baselines (TANE, FUN, FD_Mine, DFD) build partitions of
// growing attribute sets by pairwise intersection; HyFD itself deliberately
// avoids these intersections (§8) but still validates against the
// single-attribute partitions.
type Partition struct {
	Clusters [][]int32
	NumRows  int
}

// probeCell is one record's entry in the Intersector's probe table: its
// cluster in the left operand, valid only under the current stamp.
type probeCell struct {
	cluster int32
	stamp   int32
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

// Intersector intersects stripped partitions using a reusable probe table,
// the standard TANE product algorithm. It is not safe for concurrent use;
// create one per goroutine.
type Intersector struct {
	probe []probeCell
	stamp int32
}

// NewIntersector returns an Intersector for relations with numRows records.
func NewIntersector(numRows int) *Intersector {
	return &Intersector{probe: make([]probeCell, numRows)}
}

// Intersect returns the stripped partition π_a ∩ π_b, grouping records that
// co-occur in a cluster of both inputs.
func (ix *Intersector) Intersect(a, b *Partition) *Partition {
	// Stamp-mark records of a with their a-cluster id; then walk b's
	// clusters and group members by a-cluster.
	ix.stamp++
	stamp := ix.stamp
	for cid, cluster := range a.Clusters {
		for _, r := range cluster {
			ix.probe[r] = probeCell{cluster: int32(cid), stamp: stamp}
		}
	}
	out := &Partition{NumRows: a.NumRows}
	groups := make(map[int32][]int32)
	var keys []int32 // first-seen order keeps the result deterministic
	for _, cluster := range b.Clusters {
		for _, r := range cluster {
			cell := ix.probe[r]
			if cell.stamp != stamp {
				continue // r singleton in a
			}
			if _, ok := groups[cell.cluster]; !ok {
				keys = append(keys, cell.cluster)
			}
			groups[cell.cluster] = append(groups[cell.cluster], r)
		}
		for _, key := range keys {
			if g := groups[key]; len(g) > 1 {
				out.Clusters = append(out.Clusters, g)
			}
			delete(groups, key)
		}
		keys = keys[:0]
	}
	return out
}
