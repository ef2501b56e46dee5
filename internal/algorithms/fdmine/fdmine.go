// Package fdmine implements the FD_Mine algorithm of Yao, Hamilton & Butz
// (2002): a level-wise lattice traversal in the TANE family whose
// distinguishing contribution is equivalence pruning — once X → A is found,
// X and X∪{A} are equivalent, so every candidate containing X∪{A} is
// skipped (no minimal FD can have such a left-hand side). The published
// algorithm emits non-minimal FDs; as in the comparison study underlying
// the HyFD paper, the raw output is minimized before being returned.
package fdmine

import (
	"context"

	"hyfd/internal/algorithms"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/pli"
)

// FDMine discovers FDs via level-wise traversal with equivalence pruning.
type FDMine struct{}

// New returns an FD_Mine instance.
func New() *FDMine { return &FDMine{} }

// Name implements algorithms.Algorithm.
func (*FDMine) Name() string { return "FD_Mine" }

// Discover implements algorithms.Algorithm. The context is checked once
// per lattice node. FD_Mine emits LHSs of exactly the current level's
// cardinality, so a MaxLhsSize bound stops the traversal after level
// MaxLhsSize; the post-hoc minimization only consults shallower levels and
// stays correct under the cutoff.
func (*FDMine) Discover(ctx context.Context, ds *dataset.Dataset, cfg algorithms.Config) (*fd.Set, error) {
	m := ds.NumCols()
	out := fd.NewSet(m)
	if m == 0 {
		return out, nil
	}
	n := ds.NumRows()
	plis := ds.Plis()
	ref := pli.NewRefiner(ds.Index())

	emptyError := 0
	if n > 1 {
		emptyError = n - 1
	}

	// found mirrors the discovered FDs for generalization lookups: both
	// the minimality filter and the equivalence pruning query it.
	found := fdtree.New(m)

	// ∅ → A for constant columns.
	constants := bitset.New(m)
	for a := 0; a < m; a++ {
		if pli.PartitionOf(plis[a]).Error() == emptyError {
			out.Add(fd.FD{Lhs: bitset.New(m), Rhs: a})
			found.Add(bitset.New(m), a)
			constants.Set(a)
		}
	}

	type element struct {
		attrs     bitset.Set
		partition *pli.Partition
	}

	// prunedByEquivalence reports whether x contains lhs∪{rhs} of any
	// discovered FD: then x is equivalent to a smaller set and no minimal
	// FD has x as its LHS.
	prunedByEquivalence := func(x bitset.Set) bool {
		pruned := false
		x.ForEach(func(a int) bool {
			if found.FindFdOrGeneral(x.Without(a), a) {
				pruned = true
				return false
			}
			return true
		})
		return pruned
	}

	var level []*element
	for a := 0; a < m; a++ {
		if constants.Test(a) {
			continue // equivalent to ∅
		}
		level = append(level, &element{
			attrs:     bitset.FromIndices(m, a),
			partition: pli.PartitionOf(plis[a]),
		})
	}

	levelNum := 1
	for len(level) > 0 {
		var kept []*element
		for _, el := range level {
			if err := algorithms.Canceled(ctx, "FD_Mine"); err != nil {
				return nil, err
			}
			// Closure computation: which RHSs does X determine?
			for a := 0; a < m; a++ {
				if el.attrs.Test(a) || constants.Test(a) {
					continue
				}
				if found.FindFdOrGeneral(el.attrs, a) {
					continue // derivable: a generalization already found
				}
				xa := ref.Refine(el.partition, a)
				if xa.Error() == el.partition.Error() { // X → A valid
					out.Add(fd.FD{Lhs: el.attrs, Rhs: a})
					found.Add(el.attrs, a)
				}
			}
			// Key pruning: supersets of a key yield no minimal FDs.
			if el.partition.Error() == 0 {
				continue
			}
			kept = append(kept, el)
		}
		if cfg.MaxLhsSize > 0 && levelNum >= cfg.MaxLhsSize {
			break
		}

		// Generate the next level in canonical order, applying equivalence
		// pruning to every candidate.
		present := make(map[string]*element, len(kept))
		for _, el := range kept {
			present[el.attrs.Key()] = el
		}
		var next []*element
		for _, el := range kept {
			last := lastAttr(el.attrs)
			for b := last + 1; b < m; b++ {
				if constants.Test(b) {
					continue
				}
				cand := el.attrs.With(b)
				ok := true
				cand.ForEach(func(a int) bool {
					if _, exists := present[cand.Without(a).Key()]; !exists {
						ok = false
						return false
					}
					return true
				})
				if !ok || prunedByEquivalence(cand) {
					continue
				}
				next = append(next, &element{
					attrs:     cand,
					partition: ref.Refine(el.partition, b),
				})
			}
		}
		level = next
		levelNum++
	}
	return out.Minimize(), nil
}

func lastAttr(s bitset.Set) int {
	last := -1
	s.ForEach(func(a int) bool { last = a; return true })
	return last
}
