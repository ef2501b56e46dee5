// Package afd extends the repository with approximate functional
// dependency discovery — the relaxation the HyFD paper cites as adjacent
// work (§2, Huhtala et al.'s approximate dependencies). An FD X → A holds
// approximately with error g3 when removing a g3-fraction of the records
// makes it exact; dirty data that almost satisfies a rule is the primary
// use case (cleansing, §1).
package afd

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/pli"
)

// AFD is an approximate functional dependency with its g3 error.
type AFD struct {
	Lhs   bitset.Set
	Rhs   int
	Error float64
}

// String renders the AFD with its error.
func (a AFD) String() string {
	return fmt.Sprintf("%s -> %d (g3=%.4f)", a.Lhs.String(), a.Rhs, a.Error)
}

// G3 computes the g3 error of lhs → rhs on the indexed relation: the
// minimum fraction of records whose removal makes the FD exact. The
// computation walks the clusters of the LHS partition and keeps, per
// cluster, the most frequent RHS value.
func G3(ix *pli.Index, cache *pli.Cache, lhs bitset.Set, rhs int) float64 {
	var c counter
	return g3(c.violations(ix, cache.Partition(lhs), rhs, math.Inf(1)), ix.NumRows)
}

// counter counts the RHS cluster ids of one LHS cluster at a time in flat
// scratch that it keeps between calls.
type counter struct {
	// counts is indexed by an RHS cluster id and is all zero between
	// clusters; ids holds the current cluster's RHS cells.
	counts, ids []int32
}

// violations returns the number of records to remove from the clusters of
// part so that they agree on rhs: per cluster, all but the most frequent
// RHS value. Records outside any cluster are unique in the LHS and never
// violate. The count only grows from cluster to cluster, so it stops as
// soon as its g3 exceeds maxError: a count whose g3 is within maxError is
// exact.
func (c *counter) violations(ix *pli.Index, part *pli.Partition, rhs int, maxError float64) int {
	m, recs := ix.NumCols, ix.Records
	if need := len(ix.Plis[rhs].Clusters); len(c.counts) < need {
		c.counts = make([]int32, need)
	}
	counts, ids := c.counts, c.ids
	violations := 0
	for _, cluster := range part.Clusters {
		// An RHS singleton is a group of one, so the largest group has at
		// least one record.
		maxCount := int32(1)
		if len(cluster) == 2 {
			if id := recs[int(cluster[0])*m+rhs]; id != pli.Singleton && id == recs[int(cluster[1])*m+rhs] {
				maxCount = 2
			}
		} else {
			ids = ids[:0]
			for _, r := range cluster {
				id := recs[int(r)*m+rhs]
				ids = append(ids, id)
				if id == pli.Singleton {
					continue
				}
				counts[id]++
				maxCount = max(maxCount, counts[id])
			}
			for _, id := range ids {
				if id != pli.Singleton {
					counts[id] = 0
				}
			}
		}
		violations += len(cluster) - int(maxCount)
		if g3(violations, ix.NumRows) > maxError {
			break
		}
	}
	c.ids = ids
	return violations
}

// g3 returns the g3 error of v violations among n records.
func g3(v, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// Options parameterizes approximate discovery.
type Options struct {
	// MaxError is the g3 threshold ε: report X → A iff g3(X→A) ≤ ε.
	MaxError float64
	// MaxLhs bounds the LHS size (0 = unbounded). Approximate FD sets grow
	// quickly on dirty data; a bound keeps wide schemas tractable.
	MaxLhs int
}

// Discover finds all minimal approximate FDs of the prepared dataset: X → A
// with g3 ≤ ε such that no proper subset of X satisfies the threshold.
// Validity is upward-closed in the LHS (adding attributes never increases
// g3), so a level-wise search with subset pruning enumerates exactly the
// minimal ones; a candidate's g3 count stops as soon as it exceeds the
// threshold. The dataset's null semantics apply. Its shared PLIs are
// only read, so concurrent calls over one Dataset are race-clean.
// Cancellation is checked once per lattice level and RHS attribute; a
// canceled context returns an error wrapping ctx.Err() promptly instead of
// finishing the sweep.
func Discover(ctx context.Context, ds *dataset.Dataset, opts Options) ([]AFD, error) {
	m := ds.NumCols()
	if m == 0 {
		return nil, nil
	}
	maxLhs := opts.MaxLhs
	if maxLhs <= 0 || maxLhs > m-1 {
		maxLhs = m - 1
	}
	ix := ds.Index()
	cache := ds.NewCache()
	var count counter

	var out []AFD
	cand := bitset.New(m) // the specialization being tried
	for rhs := 0; rhs < m; rhs++ {
		var found []bitset.Set
		level := []bitset.Set{bitset.New(m)}
		for len(level) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("afd: discovery aborted: %w", err)
			}
			var next []bitset.Set
			seen := bitset.NewHashSet(m)
			for _, lhs := range level {
				dominated := false
				for _, g := range found {
					if g.IsSubsetOf(lhs) {
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				v := count.violations(ix, cache.Partition(lhs), rhs, opts.MaxError)
				if g := g3(v, ix.NumRows); g <= opts.MaxError {
					found = append(found, lhs)
					out = append(out, AFD{Lhs: lhs, Rhs: rhs, Error: g})
					continue
				}
				if lhs.Cardinality() >= maxLhs {
					continue
				}
				for a := 0; a < m; a++ {
					if a == rhs || lhs.Test(a) {
						continue
					}
					cand.CopyFrom(lhs)
					cand.Set(a)
					if seen.Add(cand) {
						next = append(next, cand.Clone())
					}
				}
			}
			level = next
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rhs != out[j].Rhs {
			return out[i].Rhs < out[j].Rhs
		}
		ci, cj := out[i].Lhs.Cardinality(), out[j].Lhs.Cardinality()
		if ci != cj {
			return ci < cj
		}
		return bitset.CompareKeys(out[i].Lhs, out[j].Lhs) < 0
	})
	return out, nil
}
