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
	if ix.NumRows == 0 {
		return 0
	}
	part := cache.Partition(lhs)
	// Records outside any cluster are unique in the LHS: they can never
	// violate. Within a cluster, all but the most frequent RHS value must
	// be removed.
	violations := 0
	counts := make(map[int32]int)
	for _, cluster := range part.Clusters {
		clear(counts)
		maxCount := 0
		singles := 0
		for _, rec := range cluster {
			cid := ix.Row(int(rec))[rhs]
			if cid == pli.Singleton {
				singles++ // a unique RHS value: a group of size 1
				continue
			}
			counts[cid]++
			if counts[cid] > maxCount {
				maxCount = counts[cid]
			}
		}
		if singles > 0 && maxCount == 0 {
			maxCount = 1
		}
		violations += len(cluster) - maxCount
	}
	return float64(violations) / float64(ix.NumRows)
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
// minimal ones. The dataset's null semantics apply. Its shared PLIs are
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

	var out []AFD
	for rhs := 0; rhs < m; rhs++ {
		var found []bitset.Set
		level := []bitset.Set{bitset.New(m)}
		for len(level) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("afd: discovery aborted: %w", err)
			}
			var next []bitset.Set
			seen := make(map[string]struct{})
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
				if g3 := G3(ix, cache, lhs, rhs); g3 <= opts.MaxError {
					found = append(found, lhs)
					out = append(out, AFD{Lhs: lhs, Rhs: rhs, Error: g3})
					continue
				}
				if lhs.Cardinality() >= maxLhs {
					continue
				}
				for a := 0; a < m; a++ {
					if a == rhs || lhs.Test(a) {
						continue
					}
					sp := lhs.With(a)
					if _, dup := seen[sp.Key()]; dup {
						continue
					}
					seen[sp.Key()] = struct{}{}
					next = append(next, sp)
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
