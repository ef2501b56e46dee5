package pli

import (
	"hyfd/internal/bitset"
)

// Cache memoizes stripped partitions of attribute sets, building each one
// by refining the partition of its canonical prefix. The lattice-traversal
// baselines that compute partitions on demand (FUN's cardinality counter,
// DFD's random walk) and the ucc and afd searches share it. Not safe for
// concurrent use.
type Cache struct {
	plis  []*PLI
	ref   *Refiner
	parts map[string]*Partition
	rows  int
}

// NewCache returns a partition cache over the index's PLIs and records.
func NewCache(ix *Index) *Cache {
	return &Cache{
		plis:  ix.Plis,
		ref:   NewRefiner(ix),
		parts: make(map[string]*Partition),
		rows:  ix.NumRows,
	}
}

// Partition returns the stripped partition of the attribute set, computing
// and caching it (and its canonical prefixes) as needed: π(X) is
// Refine(π(X \ {max X}), max X). The empty set's partition is the single
// cluster of all records.
func (c *Cache) Partition(attrs bitset.Set) *Partition {
	key := attrs.Key()
	if p, ok := c.parts[key]; ok {
		return p
	}
	idx := attrs.Indices()
	var p *Partition
	switch len(idx) {
	case 0:
		cluster := make([]int32, c.rows)
		for i := range cluster {
			cluster[i] = int32(i)
		}
		p = &Partition{NumRows: c.rows}
		if c.rows > 1 {
			p.Clusters = [][]int32{cluster}
		}
	case 1:
		p = PartitionOf(c.plis[idx[0]])
	default:
		last := idx[len(idx)-1]
		p = c.ref.Refine(c.Partition(attrs.Without(last)), last)
	}
	c.parts[key] = p
	return p
}

// Card returns |X|: the number of distinct value combinations over the
// attribute set.
func (c *Cache) Card(attrs bitset.Set) int {
	if attrs.IsEmpty() {
		if c.rows == 0 {
			return 0
		}
		return 1
	}
	p := c.Partition(attrs)
	return c.rows - p.Size() + len(p.Clusters)
}

// Size returns the number of cached partitions (memory telemetry).
func (c *Cache) Size() int { return len(c.parts) }
