// Package inductor implements HyFD's FD induction (§7, Alg. 3): it converts
// FD-violations (a negative cover) into minimal FD candidates by successive
// specialization of an FDTree (the positive cover), following the Fdep idea
// with the paper's cardinality-descending processing order. Discovery feeds
// it the Sampler's agree sets; incremental maintenance feeds it the agree
// sets of an insert batch.
package inductor

import (
	"sort"

	"hyfd/internal/bitset"
	"hyfd/internal/fdtree"
	"hyfd/internal/invariant"
)

// Inductor specializes a shared FDTree with observed non-FDs. The tree
// persists across calls so subsequent sampling rounds refine, not rebuild,
// the candidate set.
type Inductor struct {
	fds *fdtree.Tree
	// Scratch sets for one specialization: its LHS and its candidate RHSs.
	lhs, cand bitset.Set
}

// New returns an Inductor that seeds the tree with the most general FDs
// ∅ → A for every attribute A (Alg. 3 lines 2-4).
func New(numAttrs int) *Inductor {
	t := fdtree.New(numAttrs)
	empty := bitset.New(numAttrs)
	all := empty.Flip()
	t.AddRhss(empty, all)
	return Over(t)
}

// Over returns an Inductor that specializes t, a tree that already holds a
// positive cover, such as a base cover under incremental maintenance.
func Over(t *fdtree.Tree) *Inductor {
	n := t.NumAttrs()
	return &Inductor{fds: t, lhs: bitset.New(n), cand: bitset.New(n)}
}

// Tree returns the shared candidate FDTree.
func (in *Inductor) Tree() *fdtree.Tree { return in.fds }

// Update specializes the candidate tree with a batch of non-FDs. Each
// bitset holds the attributes two records agreed on; every unset attribute
// is a right-hand side the agree-set fails to determine. Non-FDs are
// processed in descending cardinality order so long LHSs prune the tree
// early (Alg. 3 line 1).
func (in *Inductor) Update(nonFds []bitset.Set) {
	sorted := append([]bitset.Set(nil), nonFds...)
	sort.Slice(sorted, func(i, j int) bool {
		return bitset.CompareCardinalityDesc(sorted[i], sorted[j]) < 0
	})
	for _, agree := range sorted {
		in.specialize(agree)
	}
	if invariant.Enabled {
		in.fds.AssertConsistent("Update")
	}
}

// specialize removes X → A for every X ⊆ agree and A ∉ agree, and re-adds
// every still-valid minimal specialization (Alg. 3 lines 10-20). It
// handles all such A in one pass: one walk collects the generalizations
// with their RHSs, and one walk per specialization clears the RHSs it
// would not add. Per RHS A, the tree operations are those of Alg. 3 for
// agree ↛ A alone, in the same order, and operations for different RHSs
// touch different bits, so the tree comes out the same.
func (in *Inductor) specialize(agree bitset.Set) {
	rhss := agree.Flip()
	maxLhs := in.fds.MaxLhs()
	for _, g := range in.fds.GetFdsAndGenerals(agree, rhss) {
		for r := g.Rhss.NextSet(0); r >= 0; r = g.Rhss.NextSet(r + 1) {
			in.fds.Remove(g.Lhs, r)
		}
		if g.Lhs.Cardinality() >= maxLhs {
			continue // extensions would exceed the Guardian's bound
		}
		// Extend only by attributes outside the observed agree-set, not
		// just outside g.Lhs: any extension inside the agree-set stays a
		// generalization of the same non-FD and would be invalid by the
		// very observation being processed (cf. the paper's worked
		// example, where D ↛ B yields A→B and C→B only).
		for a := rhss.NextSet(0); a >= 0; a = rhss.NextSet(a + 1) {
			in.cand.CopyFrom(g.Rhss)
			in.cand.Clear(a)
			if in.cand.IsEmpty() {
				continue
			}
			in.lhs.CopyFrom(g.Lhs)
			in.lhs.Set(a)
			in.fds.ClearCovered(in.lhs, in.cand)
			in.fds.AddRhss(in.lhs, in.cand)
		}
	}
}
