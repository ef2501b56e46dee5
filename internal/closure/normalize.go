package closure

import (
	"sort"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

// Subschema is one relation of a decomposition: a set of attributes of the
// original schema plus the key the decomposition step used.
type Subschema struct {
	Attrs bitset.Set
	Key   bitset.Set
}

// projectFDs returns the FDs of the set whose attributes all fall inside
// attrs, re-expressed over the same universe. (A full FD projection would
// need closure reasoning over every subset; for decomposition driven by
// complete minimal FD sets — the discovery output — containment projection
// is the standard practical choice.)
func projectFDs(fds *fd.Set, attrs bitset.Set) *fd.Set {
	out := fd.NewSet(fds.Universe())
	for _, f := range fds.All() {
		if attrs.Test(f.Rhs) && f.Lhs.IsSubsetOf(attrs) {
			out.Add(f)
		}
	}
	return out
}

// bcnfViolation finds an FD X → A with X ⊆ attrs, A ∈ attrs\X whose LHS is
// not a superkey of the subschema. It returns the violating FD and whether
// one exists.
func bcnfViolation(fds *fd.Set, attrs bitset.Set) (fd.FD, bool) {
	local := projectFDs(fds, attrs)
	for _, f := range local.All() {
		if f.Lhs.Test(f.Rhs) {
			continue
		}
		// Superkey within the subschema: closure covers all of attrs.
		if !attrs.IsSubsetOf(Closure(local, f.Lhs)) {
			return f, true
		}
	}
	return fd.FD{}, false
}

// BCNF decomposes the schema into Boyce-Codd normal form using the
// discovered FDs: while some subschema has a violating FD X → A, split it
// into X∪{A} and attrs\{A}. The result is lossless; dependency
// preservation is not guaranteed (it cannot be, in general, for BCNF).
func BCNF(fds *fd.Set, numAttrs int) []Subschema {
	start := bitset.New(numAttrs).Flip()
	work := []bitset.Set{start}
	var done []Subschema
	for len(work) > 0 {
		attrs := work[len(work)-1]
		work = work[:len(work)-1]
		f, violated := bcnfViolation(fds, attrs)
		if !violated {
			local := projectFDs(fds, attrs)
			key := subschemaKey(local, attrs)
			done = append(done, Subschema{Attrs: attrs, Key: key})
			continue
		}
		// Split into (X ∪ A) and (attrs \ A).
		left := f.Lhs.With(f.Rhs)
		right := attrs.Without(f.Rhs)
		work = append(work, left, right)
	}
	sort.Slice(done, func(i, j int) bool { return bitset.CompareKeys(done[i].Attrs, done[j].Attrs) < 0 })
	return done
}

// subschemaKey returns one minimal key of the subschema under its local
// FDs: start from all attributes and greedily drop the ones whose removal
// keeps the closure complete.
func subschemaKey(local *fd.Set, attrs bitset.Set) bitset.Set {
	key := attrs.Clone()
	attrs.ForEach(func(a int) bool {
		cand := key.Without(a)
		if attrs.IsSubsetOf(Closure(local, cand)) {
			key = cand
		}
		return true
	})
	return key
}

// ThirdNF synthesizes a third-normal-form, dependency-preserving, lossless
// decomposition from a minimal cover of the FDs (the classic Bernstein
// synthesis): one subschema per distinct LHS of the cover, plus a key
// subschema if no synthesized one contains a key of the whole schema.
func ThirdNF(fds *fd.Set, numAttrs int) []Subschema {
	cover := MinimalCover(fds)
	// Group cover FDs by LHS.
	groups := make(map[string]*Subschema)
	var order []string
	for _, f := range cover.All() {
		k := f.Lhs.Key()
		g, ok := groups[k]
		if !ok {
			g = &Subschema{Attrs: f.Lhs.Clone(), Key: f.Lhs.Clone()}
			groups[k] = g
			order = append(order, k)
		}
		g.Attrs.Set(f.Rhs)
	}
	var out []Subschema
	for _, k := range order {
		out = append(out, *groups[k])
	}
	// Drop subschemas contained in others.
	var kept []Subschema
	for i, s := range out {
		contained := false
		for j, t := range out {
			if i == j {
				continue
			}
			if s.Attrs.IsProperSubsetOf(t.Attrs) || (s.Attrs.Equal(t.Attrs) && i > j) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, s)
		}
	}
	// Ensure some subschema contains a candidate key of the full schema.
	keys := CandidateKeys(fds, numAttrs)
	hasKey := false
	for _, s := range kept {
		for _, key := range keys {
			if key.IsSubsetOf(s.Attrs) {
				hasKey = true
				break
			}
		}
		if hasKey {
			break
		}
	}
	if !hasKey && len(keys) > 0 {
		kept = append(kept, Subschema{Attrs: keys[0].Clone(), Key: keys[0].Clone()})
	}
	sort.Slice(kept, func(i, j int) bool { return bitset.CompareKeys(kept[i].Attrs, kept[j].Attrs) < 0 })
	return kept
}

// Violation is a record pair violating an FD, for data cleansing.
type Violation struct {
	FD   fd.FD
	Row1 int
	Row2 int
}

// Violations scans the relation for record pairs violating the FD and
// returns up to limit of them (limit <= 0 returns all). Pairs are grouped
// by LHS values, so runtime is near-linear in the number of rows plus the
// number of violations.
func Violations(rel *relation.Relation, ns relation.NullSemantics, f fd.FD, limit int) []Violation {
	type entry struct {
		row int
		rhs string
	}
	groups := make(map[string][]entry)
	var out []Violation
	attrs := f.Lhs.Indices()
	var key []byte
	for i, row := range rel.Rows {
		var ok bool
		if key, ok = fd.GroupKey(key[:0], row, attrs, ns); !ok {
			continue
		}
		rv := row[f.Rhs]
		for _, prev := range groups[string(key)] {
			disagree := prev.rhs != rv ||
				(rv == relation.Null && ns == relation.NullNotEqualsNull)
			if disagree {
				out = append(out, Violation{FD: f, Row1: prev.row, Row2: i})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
		groups[string(key)] = append(groups[string(key)], entry{row: i, rhs: rv})
	}
	return out
}
