// Package tane implements the TANE algorithm of Huhtala et al. (1999): a
// level-wise, apriori-gen driven traversal of the attribute-set lattice
// that validates FD candidates through stripped-partition errors and prunes
// with C⁺ candidate sets and (super)key pruning. TANE is the paper's
// archetypal row-efficient baseline; HyFD's validation avoids its cache of
// hierarchical partition intersections and its LHS ∪ {A} partitions.
package tane

import (
	"context"
	"sort"

	"hyfd/internal/algorithms"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/pli"
)

// TANE discovers FDs via level-wise lattice traversal.
type TANE struct{}

// New returns a TANE instance.
func New() *TANE { return &TANE{} }

// Name implements algorithms.Algorithm.
func (*TANE) Name() string { return "Tane" }

// element is one lattice node of the current level: the attribute set, its
// C⁺ candidate set, and its stripped partition (the memory-heavy part that
// Table 3 of the paper attributes TANE's footprint to).
type element struct {
	attrs     bitset.Set
	cplus     bitset.Set
	partition *pli.Partition
}

// Discover implements algorithms.Algorithm. The context is checked once
// per lattice node in compute_dependencies and in the key pruning, and
// every checkInterval candidates in apriori-gen; cancellation aborts the
// traversal with a wrapped ctx.Err(). A MaxLhsSize bound additionally cuts
// the traversal off after the level that can still contribute minimal FDs
// within the bound.
func (*TANE) Discover(ctx context.Context, ds *dataset.Dataset, cfg algorithms.Config) (*fd.Set, error) {
	m := ds.NumCols()
	out := fd.NewSet(m)
	if m == 0 {
		return out, nil
	}
	n := ds.NumRows()
	plis := ds.Plis()
	ref := pli.NewRefiner(ds.Index())

	// e(∅): the empty attribute set groups all records into one cluster.
	emptyError := 0
	if n > 1 {
		emptyError = n - 1
	}
	allAttrs := bitset.New(m).Flip()

	// prevErr/prevCplus/prevPart map previous-level attribute sets to their
	// partition error, C⁺ set and partition; level ℓ only references
	// subsets that survived level ℓ-1 (apriori-gen guarantees it), except
	// for the key-pruning minimality test, which may need partitions of
	// subsets whose supersets were never generated.
	prevErr := map[string]int{bitset.New(m).Key(): emptyError}
	prevCplus := map[string]bitset.Set{bitset.New(m).Key(): allAttrs}
	prevPart := map[string]*pli.Partition{}

	// Level 1.
	level := make([]*element, 0, m)
	for a := 0; a < m; a++ {
		level = append(level, &element{
			attrs:     bitset.FromIndices(m, a),
			partition: pli.PartitionOf(plis[a]),
		})
	}

	levelNum := 1
	for len(level) > 0 {
		curErr := make(map[string]int, len(level))
		curCplus := make(map[string]bitset.Set, len(level))
		curPart := make(map[string]*pli.Partition, len(level))
		// compute_dependencies.
		for _, el := range level {
			if err := algorithms.Canceled(ctx, "Tane"); err != nil {
				return nil, err
			}
			// C⁺(X) = ∩_{A∈X} C⁺(X\A).
			cplus := allAttrs
			el.attrs.ForEach(func(a int) bool {
				cplus = cplus.And(prevCplus[el.attrs.Without(a).Key()])
				return true
			})
			el.cplus = cplus
			curErr[el.attrs.Key()] = el.partition.Error()
			curCplus[el.attrs.Key()] = cplus // mutated in place below
			curPart[el.attrs.Key()] = el.partition

			check := el.attrs.And(el.cplus)
			check.ForEach(func(a int) bool {
				// X\A → A valid iff e(X\A) = e(X).
				if prevErr[el.attrs.Without(a).Key()] == el.partition.Error() {
					out.Add(fd.FD{Lhs: el.attrs.Without(a), Rhs: a})
					el.cplus.Clear(a)
					// Remove all B ∈ R\X from C⁺(X).
					el.attrs.Flip().ForEach(func(b int) bool {
						el.cplus.Clear(b)
						return true
					})
				}
				return true
			})
		}

		// prune.
		kept := level[:0]
		for _, el := range level {
			if el.cplus.IsEmpty() {
				continue
			}
			if err := algorithms.Canceled(ctx, "Tane"); err != nil {
				return nil, err
			}
			if el.partition.Error() == 0 { // X is a (super)key
				el.cplus.AndNot(el.attrs).ForEach(func(a int) bool {
					// X → A is valid (X is a key); output it iff it is
					// minimal, i.e. no immediate subset X\B determines A.
					// (Checking immediate subsets suffices: a valid deeper
					// generalization augments to some X\B.) This replaces
					// the C⁺(X∪A\B) intersection of the original
					// formulation, whose operand sets may never have been
					// generated once their subsets were key-pruned.
					minimal := true
					el.attrs.ForEach(func(b int) bool {
						sub := el.attrs.Without(b)
						var subAErr int
						if sub.IsEmpty() {
							subAErr = pli.PartitionOf(plis[a]).Error()
						} else {
							subAErr = ref.Refine(prevPart[sub.Key()], a).Error()
						}
						if prevErr[sub.Key()] == subAErr { // X\B → A valid
							minimal = false
							return false
						}
						return true
					})
					if minimal {
						out.Add(fd.FD{Lhs: el.attrs, Rhs: a})
					}
					return true
				})
				continue // delete X from the level
			}
			kept = append(kept, el)
		}

		// Level max+1 is the last that matters under a LHS bound:
		// compute_dependencies at level ℓ emits LHS sizes ℓ-1, so deeper
		// levels only produce FDs the bound excludes anyway.
		if cfg.MaxLhsSize > 0 && levelNum > cfg.MaxLhsSize {
			break
		}
		// apriori-gen: join nodes sharing all but their largest attribute;
		// partitions of the next level refine the first of the generating
		// pair by the second one's largest attribute.
		var err error
		if level, err = aprioriGen(ctx, kept, ref); err != nil {
			return nil, err
		}
		levelNum++
		prevErr = curErr
		prevCplus = curCplus
		prevPart = curPart
	}
	return algorithms.Truncate(out, cfg.MaxLhsSize), nil
}

// checkInterval is the number of apriori-gen candidates between two
// context checks: a wide level joins millions of pairs.
const checkInterval = 256

// aprioriGen builds the next level: combine pairs that differ only in their
// maximum attribute and keep combinations whose every ℓ-subset survived
// pruning. The partition of X∪{a,b} refines π(X∪{a}) by b.
func aprioriGen(ctx context.Context, level []*element, ref *pli.Refiner) ([]*element, error) {
	if len(level) == 0 {
		return nil, nil
	}
	present := make(map[string]*element, len(level))
	for _, el := range level {
		present[el.attrs.Key()] = el
	}
	// Group by prefix (attrs without the largest attribute).
	groups := make(map[string][]*element)
	var order []string
	for _, el := range level {
		key := el.attrs.Without(lastAttr(el.attrs)).Key()
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], el)
	}
	var next []*element
	candidates := 0
	for _, key := range order {
		group := groups[key]
		sort.Slice(group, func(i, j int) bool {
			return lastAttr(group[i].attrs) < lastAttr(group[j].attrs)
		})
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if candidates++; candidates%checkInterval == 0 {
					if err := algorithms.Canceled(ctx, "Tane"); err != nil {
						return nil, err
					}
				}
				union := group[i].attrs.Or(group[j].attrs)
				// All ℓ-subsets must exist in the pruned level.
				ok := true
				union.ForEach(func(a int) bool {
					if _, exists := present[union.Without(a).Key()]; !exists {
						ok = false
						return false
					}
					return true
				})
				if !ok {
					continue
				}
				next = append(next, &element{
					attrs:     union,
					partition: ref.Refine(group[i].partition, lastAttr(group[j].attrs)),
				})
			}
		}
	}
	return next, nil
}

func lastAttr(s bitset.Set) int {
	last := -1
	s.ForEach(func(a int) bool { last = a; return true })
	return last
}
