// Package agreeset computes the agree sets of a relation: for each record
// pair, the set of attributes on which the two records share a value.
// Dep-Miner and FastFDs derive all FDs from (the complements of) these
// sets. Pairs are enumerated through PLI clusters — only records that
// co-occur in at least one cluster can agree on anything — and the empty
// agree set is added exactly when some record pair co-occurs nowhere.
package agreeset

import (
	"context"

	"hyfd/internal/bitset"
	"hyfd/internal/pli"
)

// cancelStride bounds how many record pairs may pass between two context
// checks; the pair enumeration is the O(n²) heart of the difference-set
// family, so it carries its own checkpoints.
const cancelStride = 4096

// Compute returns the distinct agree sets of all record pairs of the
// indexed relation. The context is checked every cancelStride pairs; a
// canceled computation returns ctx.Err() promptly.
func Compute(ctx context.Context, ix *pli.Index) ([]bitset.Set, error) {
	n := int64(ix.NumRows)
	totalPairs := n * (n - 1) / 2

	seenPairs := make(map[int64]struct{})
	seenSets := make(map[string]struct{})
	var out []bitset.Set

	addPair := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		pk := int64(a)<<32 | int64(b)
		if _, dup := seenPairs[pk]; dup {
			return
		}
		seenPairs[pk] = struct{}{}
		ra, rb := ix.Row(int(a)), ix.Row(int(b))
		agree := bitset.New(ix.NumCols)
		for attr := 0; attr < ix.NumCols; attr++ {
			if ra[attr] != pli.Singleton && ra[attr] == rb[attr] {
				agree.Set(attr)
			}
		}
		key := agree.Key()
		if _, dup := seenSets[key]; dup {
			return
		}
		seenSets[key] = struct{}{}
		out = append(out, agree)
	}

	var pairs, nextCheck int64
	for _, p := range ix.Plis {
		for _, cluster := range p.Clusters {
			for i := 0; i < len(cluster); i++ {
				if pairs >= nextCheck {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					nextCheck = pairs + cancelStride
				}
				pairs += int64(len(cluster) - i - 1)
				for j := i + 1; j < len(cluster); j++ {
					addPair(cluster[i], cluster[j])
				}
			}
		}
	}

	// Pairs that co-occur in no cluster agree on nothing; their agree set
	// is ∅ and must be part of the result if any such pair exists.
	if int64(len(seenPairs)) < totalPairs {
		empty := bitset.New(ix.NumCols)
		if _, dup := seenSets[empty.Key()]; !dup {
			out = append(out, empty)
		}
	}
	return out, nil
}

// DifferenceSets returns the complements of the agree sets: the attribute
// sets in which some record pair disagrees everywhere inside the set and
// agrees everywhere outside it. FastFDs derives covers from these.
func DifferenceSets(numAttrs int, agreeSets []bitset.Set) []bitset.Set {
	out := make([]bitset.Set, len(agreeSets))
	for i, a := range agreeSets {
		out[i] = a.Flip()
	}
	return out
}

// Maximize keeps only the ⊆-maximal sets of the collection.
func Maximize(sets []bitset.Set) []bitset.Set {
	var out []bitset.Set
	for i, s := range sets {
		maximal := true
		for j, t := range sets {
			if i != j && (s.IsProperSubsetOf(t) || (i > j && s.Equal(t))) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out
}

// Minimize keeps only the ⊆-minimal sets of the collection.
func Minimize(sets []bitset.Set) []bitset.Set {
	var out []bitset.Set
	for i, s := range sets {
		minimal := true
		for j, t := range sets {
			if i != j && (t.IsProperSubsetOf(s) || (i > j && s.Equal(t))) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	return out
}
