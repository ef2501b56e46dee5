// Package hitset computes minimal hitting sets (transversals) of attribute
// set collections. The difference-set family of FD discovery algorithms
// reduces left-hand-side search to exactly this problem: the minimal LHSs
// of an attribute A are the minimal transversals of A's difference sets
// (Dep-Miner, FastFDs), and DFD uses transversals of complemented maximal
// non-dependencies to seed its random walks.
package hitset

import (
	"context"

	"hyfd/internal/bitset"
)

// checkInterval is the number of candidates between two context checks:
// a wide universe puts millions of candidates on one level.
const checkInterval = 256

// MinimalTransversals returns all minimal subsets of the n-attribute
// universe (never containing exclude, pass -1 to allow all attributes) that
// intersect every set in sets. Conventions: an empty collection has the
// single transversal ∅; a collection containing an empty set has none.
// Enumeration is level-wise in ascending-attribute canonical order. The
// context is checked every checkInterval candidates; a canceled context
// returns ctx.Err().
func MinimalTransversals(ctx context.Context, n int, sets []bitset.Set, exclude int) ([]bitset.Set, error) {
	for _, s := range sets {
		if s.IsEmpty() {
			return nil, nil
		}
	}
	if len(sets) == 0 {
		return []bitset.Set{bitset.New(n)}, nil
	}
	// Attributes usable for covers.
	usable := make([]int, 0, n)
	inAny := bitset.New(n)
	for _, s := range sets {
		inAny = inAny.Or(s)
	}
	for a := 0; a < n; a++ {
		if a != exclude && inAny.Test(a) {
			usable = append(usable, a)
		}
	}

	hits := func(x bitset.Set) bool {
		for _, s := range sets {
			if !x.Intersects(s) {
				return false
			}
		}
		return true
	}

	var found []bitset.Set
	dominated := func(x bitset.Set) bool {
		for _, f := range found {
			if f.IsSubsetOf(x) {
				return true
			}
		}
		return false
	}

	type cand struct {
		attrs bitset.Set
		last  int
	}
	level := make([]cand, 0, len(usable))
	for _, a := range usable {
		level = append(level, cand{attrs: bitset.FromIndices(n, a), last: a})
	}
	candidates := 0
	for len(level) > 0 {
		var next []cand
		for _, c := range level {
			if candidates++; candidates%checkInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if dominated(c.attrs) {
				continue
			}
			if hits(c.attrs) {
				found = append(found, c.attrs)
				continue
			}
			for _, b := range usable {
				if b <= c.last {
					continue
				}
				next = append(next, cand{attrs: c.attrs.With(b), last: b})
			}
		}
		level = next
	}
	return found, nil
}
