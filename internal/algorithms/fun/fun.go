// Package fun implements the FUN algorithm of Novelli & Cicchetti (2001):
// a level-wise traversal restricted to free sets — attribute sets whose
// distinct-value cardinality strictly exceeds that of all their subsets.
// FDs follow from cardinality equalities |X| = |X∪A|, and the free-set
// family (downward closed) bounds the explored lattice. Cardinalities come
// from stripped partitions; intersected partitions are cached on demand.
package fun

import (
	"context"
	"sort"

	"hyfd/internal/algorithms"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
)

// FUN discovers FDs via free sets and cardinality reasoning.
type FUN struct{}

// New returns a FUN instance.
func New() *FUN { return &FUN{} }

// Name implements algorithms.Algorithm.
func (*FUN) Name() string { return "Fun" }

// Discover implements algorithms.Algorithm. The context is checked once
// per free-set candidate; every FD FUN emits at level ℓ has a LHS of
// exactly ℓ attributes, so a MaxLhsSize bound simply stops the traversal
// after level MaxLhsSize.
func (*FUN) Discover(ctx context.Context, ds *dataset.Dataset, cfg algorithms.Config) (*fd.Set, error) {
	m := ds.NumCols()
	out := fd.NewSet(m)
	if m == 0 {
		return out, nil
	}
	cnt := ds.NewCache()

	// ∅ → A for constant columns; such attributes can never be the RHS of
	// another minimal FD, nor appear in a free set of size ≥ 1 usefully.
	constants := bitset.New(m)
	for a := 0; a < m; a++ {
		if cnt.Card(bitset.FromIndices(m, a)) == cnt.Card(bitset.New(m)) {
			out.Add(fd.FD{Lhs: bitset.New(m), Rhs: a})
			constants.Set(a)
		}
	}

	// validFd reports whether X → A per cardinality equality.
	validFd := func(lhs bitset.Set, a int) bool {
		return cnt.Card(lhs) == cnt.Card(lhs.With(a))
	}

	// Level-wise enumeration of free sets; the family is downward closed,
	// so apriori generation over surviving (free) sets is complete.
	free := make(map[string]bool)
	free[bitset.New(m).Key()] = true
	var level []bitset.Set
	for a := 0; a < m; a++ {
		if !constants.Test(a) {
			level = append(level, bitset.FromIndices(m, a))
		}
	}
	levelNum := 1
	for len(level) > 0 {
		var freeLevel []bitset.Set
		for _, x := range level {
			if err := algorithms.Canceled(ctx, "Fun"); err != nil {
				return nil, err
			}
			// x is free iff every immediate subset has smaller cardinality.
			isFree := true
			x.ForEach(func(a int) bool {
				if cnt.Card(x.Without(a)) == cnt.Card(x) {
					isFree = false
					return false
				}
				return true
			})
			if !isFree {
				continue
			}
			free[x.Key()] = true
			freeLevel = append(freeLevel, x)
			// Emit FDs x → a for every candidate RHS, with the minimality
			// test over immediate LHS subsets.
			for a := 0; a < m; a++ {
				if x.Test(a) || constants.Test(a) {
					continue
				}
				if !validFd(x, a) {
					continue
				}
				minimal := true
				x.ForEach(func(b int) bool {
					if validFd(x.Without(b), a) {
						minimal = false
						return false
					}
					return true
				})
				if minimal {
					out.Add(fd.FD{Lhs: x, Rhs: a})
				}
			}
		}
		if cfg.MaxLhsSize > 0 && levelNum >= cfg.MaxLhsSize {
			break
		}
		level = nextLevel(freeLevel, free, m)
		levelNum++
	}
	return out, nil
}

// nextLevel generates candidate sets one attribute larger whose every
// immediate subset is free (apriori over the free-set family).
func nextLevel(freeLevel []bitset.Set, free map[string]bool, m int) []bitset.Set {
	if len(freeLevel) == 0 {
		return nil
	}
	var next []bitset.Set
	seen := make(map[string]struct{})
	for _, x := range freeLevel {
		last := lastAttr(x)
		for b := last + 1; b < m; b++ {
			cand := x.With(b)
			key := cand.Key()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			ok := true
			cand.ForEach(func(a int) bool {
				if !free[cand.Without(a).Key()] {
					ok = false
					return false
				}
				return true
			})
			if ok {
				next = append(next, cand)
			}
		}
	}
	sort.Slice(next, func(i, j int) bool { return bitset.CompareKeys(next[i], next[j]) < 0 })
	return next
}

func lastAttr(s bitset.Set) int {
	last := -1
	s.ForEach(func(a int) bool { last = a; return true })
	return last
}
