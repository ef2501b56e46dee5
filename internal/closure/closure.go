// Package closure implements the classical FD reasoning layer that the
// HyFD paper names as the primary consumers of discovered dependencies
// (§1, §10.6): attribute-set closures, candidate key discovery, minimal
// covers, BCNF decomposition, 3NF synthesis, and FD-violation detection for
// data cleansing. All functions operate on the FD sets produced by the
// discovery algorithms.
package closure

import (
	"sort"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
)

// Closure returns the closure X⁺ of the attribute set under the FDs: the
// largest set of attributes functionally determined by X.
func Closure(fds *fd.Set, x bitset.Set) bitset.Set {
	out := x.Clone()
	all := fds.All()
	for changed := true; changed; {
		changed = false
		for _, f := range all {
			if !out.Test(f.Rhs) && f.Lhs.IsSubsetOf(out) {
				out.Set(f.Rhs)
				changed = true
			}
		}
	}
	return out
}

// Determines reports whether X functionally determines A under the FDs.
func Determines(fds *fd.Set, x bitset.Set, a int) bool {
	return Closure(fds, x).Test(a)
}

// IsSuperkey reports whether X determines every attribute of the universe.
func IsSuperkey(fds *fd.Set, x bitset.Set) bool {
	return Closure(fds, x).Cardinality() == fds.Universe()
}

// CandidateKeys returns all minimal keys of the schema under the FDs, in
// canonical order (ascending cardinality, then lexicographic).
//
// The search is level-wise over the necessary attribute core: attributes
// that appear on no right-hand side must be part of every key, and
// attributes determined by the core alone can be excluded from candidates.
func CandidateKeys(fds *fd.Set, numAttrs int) []bitset.Set {
	if numAttrs == 0 {
		return []bitset.Set{bitset.New(0)}
	}
	// Core: attributes never on any RHS must be in every key.
	core := bitset.New(numAttrs).Flip()
	for _, f := range fds.All() {
		core.Clear(f.Rhs)
	}
	coreClosure := Closure(fds, core)
	if coreClosure.Cardinality() == numAttrs {
		return []bitset.Set{core}
	}
	// Extend the core with attributes outside its closure.
	var extension []int
	for a := 0; a < numAttrs; a++ {
		if !coreClosure.Test(a) {
			extension = append(extension, a)
		}
	}
	var keys []bitset.Set
	dominated := func(x bitset.Set) bool {
		for _, k := range keys {
			if k.IsSubsetOf(x) {
				return true
			}
		}
		return false
	}
	type cand struct {
		attrs bitset.Set
		last  int
	}
	level := make([]cand, 0, len(extension))
	for _, a := range extension {
		level = append(level, cand{attrs: core.With(a), last: a})
	}
	for len(level) > 0 {
		var next []cand
		for _, c := range level {
			if dominated(c.attrs) {
				continue
			}
			if IsSuperkey(fds, c.attrs) {
				keys = append(keys, c.attrs)
				continue
			}
			for _, b := range extension {
				if b > c.last {
					next = append(next, cand{attrs: c.attrs.With(b), last: b})
				}
			}
		}
		level = next
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := keys[i].Cardinality(), keys[j].Cardinality()
		if ci != cj {
			return ci < cj
		}
		return bitset.CompareKeys(keys[i], keys[j]) < 0
	})
	return keys
}

// MinimalCover returns a canonical (minimal) cover of the FD set: every FD
// has a minimal LHS and no FD is derivable from the others. Discovery
// algorithms already emit LHS-minimal FDs, so the work left is dropping
// transitively redundant ones.
func MinimalCover(fds *fd.Set) *fd.Set {
	current := fds.Minimize()
	all := current.All()
	keep := make([]bool, len(all))
	for i := range keep {
		keep[i] = true
	}
	for i, f := range all {
		// Is f derivable from the others?
		rest := fd.NewSet(current.Universe())
		for j, g := range all {
			if i != j && keep[j] {
				rest.Add(g)
			}
		}
		if Determines(rest, f.Lhs, f.Rhs) {
			keep[i] = false
		}
	}
	out := fd.NewSet(current.Universe())
	for i, f := range all {
		if keep[i] {
			out.Add(f)
		}
	}
	return out
}
