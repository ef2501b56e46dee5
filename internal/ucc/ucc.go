// Package ucc discovers unique column combinations (UCCs): attribute sets
// whose value combinations identify records uniquely, i.e. candidate keys
// of the instance. UCC discovery is the sister problem of FD discovery —
// the HyFD authors' companion system HyUCC transfers the same hybrid
// architecture — and keys are what the paper's normalization use case (§1)
// ultimately needs. This implementation reuses the repository's PLI
// substrate: X is unique iff the stripped partition π_X has no clusters.
//
// Two discovery strategies are provided: a bottom-up lattice search with
// partition caching, and a HyFD-flavored hybrid that first derives
// candidate uniques from sampled agree sets (any UCC must hit every
// agree-set complement) and then validates them against the PLIs.
package ucc

import (
	"context"
	"fmt"
	"sort"

	"hyfd/internal/algorithms/hitset"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/pli"
)

// Discover returns all minimal unique column combinations of the prepared
// dataset, in canonical order (ascending cardinality, then lexicographic);
// the dataset's null semantics apply. maxSize bounds the combination size
// (0 = unbounded). The shared PLIs are only read, so concurrent calls over
// one Dataset are race-clean. Cancellation is checked once per lattice
// level; a canceled context returns an error wrapping ctx.Err() promptly
// instead of finishing the sweep.
func Discover(ctx context.Context, ds *dataset.Dataset, maxSize int) ([]bitset.Set, error) {
	m := ds.NumCols()
	if m == 0 {
		if ds.NumRows() <= 1 {
			return []bitset.Set{bitset.New(0)}, nil
		}
		return nil, nil
	}
	if maxSize <= 0 || maxSize > m {
		maxSize = m
	}
	cache := ds.NewCache()

	// The empty set is unique iff there is at most one record.
	if ds.NumRows() <= 1 {
		return []bitset.Set{bitset.New(m)}, nil
	}

	var found []bitset.Set
	dominated := func(x bitset.Set) bool {
		for _, u := range found {
			if u.IsSubsetOf(x) {
				return true
			}
		}
		return false
	}
	type cand struct {
		attrs bitset.Set
		last  int
	}
	level := make([]cand, 0, m)
	for a := 0; a < m; a++ {
		level = append(level, cand{attrs: bitset.FromIndices(m, a), last: a})
	}
	for len(level) > 0 && level[0].attrs.Cardinality() <= maxSize {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ucc: discovery aborted: %w", err)
		}
		var next []cand
		for _, c := range level {
			if dominated(c.attrs) {
				continue
			}
			if len(cache.Partition(c.attrs).Clusters) == 0 {
				found = append(found, c.attrs)
				continue
			}
			for b := c.last + 1; b < m; b++ {
				next = append(next, cand{attrs: c.attrs.With(b), last: b})
			}
		}
		level = next
	}
	sortUCCs(found)
	return found, nil
}

// DiscoverHybrid finds the same minimal UCCs as Discover with a
// sampling-first strategy in the spirit of HyFD/HyUCC: sampled agree sets
// yield candidate uniques as minimal hitting sets of their complements (a
// UCC must separate every sampled record pair); candidates are validated
// against the PLIs, and violating pairs sharpen the sample until a
// fixpoint. Per-run state — the agree-set sample and the partition cache —
// is created fresh here, so concurrent calls over one Dataset are
// race-clean.
func DiscoverHybrid(ds *dataset.Dataset) ([]bitset.Set, error) {
	m := ds.NumCols()
	if m == 0 {
		if ds.NumRows() <= 1 {
			return []bitset.Set{bitset.New(0)}, nil
		}
		return nil, nil
	}
	ix := ds.Index()
	if ix.NumRows <= 1 {
		return []bitset.Set{bitset.New(m)}, nil
	}
	cache := ds.NewCache()

	// Sample agree sets: window-1 neighbors inside every PLI cluster.
	seen := make(map[string]struct{})
	var agree []bitset.Set
	observe := func(a, b int32) {
		s := bitset.New(m)
		ra, rb := ix.Row(int(a)), ix.Row(int(b))
		for attr := 0; attr < m; attr++ {
			if ra[attr] != pli.Singleton && ra[attr] == rb[attr] {
				s.Set(attr)
			}
		}
		if _, dup := seen[s.Key()]; !dup {
			seen[s.Key()] = struct{}{}
			agree = append(agree, s)
		}
	}
	for _, p := range ix.Plis {
		for _, cluster := range p.Clusters {
			for i := 0; i+1 < len(cluster); i++ {
				observe(cluster[i], cluster[i+1])
			}
		}
	}

	// Iterate: candidates = minimal transversals of the agree-set
	// complements; validate; feed violating pairs back as new agree sets.
	for {
		complements := make([]bitset.Set, len(agree))
		for i, s := range agree {
			complements[i] = s.Flip()
		}
		candidates := hitset.MinimalTransversals(m, complements, -1)
		var confirmed []bitset.Set
		progress := false
		for _, c := range candidates {
			part := cache.Partition(c)
			if len(part.Clusters) == 0 {
				confirmed = append(confirmed, c)
				continue
			}
			// Violated: the first cluster provides a new record pair.
			observe(part.Clusters[0][0], part.Clusters[0][1])
			progress = true
		}
		if !progress {
			sortUCCs(confirmed)
			return confirmed, nil
		}
	}
}

func sortUCCs(uccs []bitset.Set) {
	sort.Slice(uccs, func(i, j int) bool {
		ci, cj := uccs[i].Cardinality(), uccs[j].Cardinality()
		if ci != cj {
			return ci < cj
		}
		return bitset.CompareKeys(uccs[i], uccs[j]) < 0
	})
}
