package pli

import "hyfd/internal/invariant"

// assertStripped verifies the stripped-partition contract of a freshly built
// PLI under -tags hyfdinvariants (see internal/invariant):
//
//   - every retained cluster has at least two members (singletons are
//     stripped), listed in strictly ascending record order;
//   - clusters are pairwise disjoint and all record ids are in range;
//   - the class accounting balances: records covered by clusters plus
//     stripped singleton classes equals the relation's row count.
func assertStripped(p *PLI) {
	seen := make(map[int32]bool)
	covered := 0
	for ci, cluster := range p.Clusters {
		invariant.Assert(len(cluster) >= 2,
			"pli attr %d: cluster %d has size %d; stripped partitions keep only clusters of size >= 2",
			p.Attr, ci, len(cluster))
		prev := int32(-1)
		for _, r := range cluster {
			invariant.Assert(r >= 0 && int(r) < p.NumRows,
				"pli attr %d: record id %d out of range [0,%d)", p.Attr, r, p.NumRows)
			invariant.Assert(r > prev,
				"pli attr %d: cluster %d not in strictly ascending record order", p.Attr, ci)
			invariant.Assert(!seen[r],
				"pli attr %d: record %d appears in two clusters", p.Attr, r)
			seen[r] = true
			prev = r
		}
		covered += len(cluster)
	}
	singletons := p.NumClusters - len(p.Clusters)
	invariant.Assert(singletons >= 0,
		"pli attr %d: NumClusters %d below retained cluster count %d", p.Attr, p.NumClusters, len(p.Clusters))
	invariant.Assert(covered+singletons == p.NumRows,
		"pli attr %d: %d covered records + %d singletons != %d rows", p.Attr, covered, singletons, p.NumRows)
}

// assertRefined verifies under -tags hyfdinvariants that a product written
// by RefineInto is stripped and refines its parent: every cluster, which
// ends[i] closes in flat (the first starting at from), has at least two
// records, listed in strictly ascending order and all in range, no record
// lies in two clusters, and all of a cluster's records lie in one cluster
// of parent.
func assertRefined(parent [][]int32, flat, ends []int32, from int32, numRows int) {
	// owner[r] is one plus the index of r's parent cluster, 0 for none.
	owner, seen := make([]int32, numRows), make([]bool, numRows)
	for pi, cluster := range parent {
		for _, r := range cluster {
			owner[r] = int32(pi) + 1
		}
	}
	start := from
	for ci, end := range ends {
		cluster := flat[start:end]
		start = end
		invariant.Assert(len(cluster) >= 2,
			"partition: cluster %d has size %d; stripped partitions keep only clusters of size >= 2", ci, len(cluster))
		prev := int32(-1)
		for _, r := range cluster {
			invariant.Assert(r >= 0 && int(r) < numRows,
				"partition: record id %d out of range [0,%d)", r, numRows)
			invariant.Assert(r > prev,
				"partition: cluster %d not in strictly ascending record order", ci)
			invariant.Assert(!seen[r],
				"partition: record %d appears in two clusters", r)
			invariant.Assert(owner[r] != 0 && owner[r] == owner[cluster[0]],
				"partition: cluster %d does not lie within one parent cluster", ci)
			seen[r] = true
			prev = r
		}
	}
}
