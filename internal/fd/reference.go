package fd

import (
	"encoding/binary"

	"hyfd/internal/bitset"
	"hyfd/internal/relation"
)

// GroupKey appends to dst the key that groups row with the records agreeing
// with it on attrs: each cell prefixed with its length, so two different
// value lists never share a key, whatever bytes the cells hold. It reports
// false if a null cell makes the record unique on attrs (null≠null).
func GroupKey(dst []byte, row []string, attrs []int, ns relation.NullSemantics) ([]byte, bool) {
	for _, a := range attrs {
		v := row[a]
		if v == relation.Null && ns == relation.NullNotEqualsNull {
			return dst, false
		}
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst, true
}

// Holds checks the FD lhs → rhs directly against the relation by grouping
// records on their LHS values, honoring the null semantics. It is the
// definitional O(n·|lhs|) check; discovery algorithms use PLIs instead, and
// the test suite uses Holds as ground truth.
func Holds(rel *relation.Relation, ns relation.NullSemantics, lhs bitset.Set, rhs int) bool {
	attrs := lhs.Indices()
	groups := make(map[string]string, len(rel.Rows))
	var key []byte
	for _, row := range rel.Rows {
		var ok bool
		// A null LHS cell under null≠null makes the record unique on the
		// LHS; it can never collide with another record.
		if key, ok = GroupKey(key[:0], row, attrs, ns); !ok {
			continue
		}
		rv := row[rhs]
		if prev, ok := groups[string(key)]; ok {
			if prev != rv {
				return false
			}
			if rv == relation.Null && ns == relation.NullNotEqualsNull {
				return false // two nulls disagree under null≠null
			}
		} else {
			groups[string(key)] = rv
		}
	}
	return true
}

// BruteForce discovers all minimal, non-trivial FDs of the relation by
// level-wise enumeration of the full candidate lattice, validating each
// candidate definitionally with Holds. Exponential in the column count —
// intended for cross-validating the real algorithms on small inputs only.
func BruteForce(rel *relation.Relation, ns relation.NullSemantics) *Set {
	m := rel.NumCols()
	out := NewSet(m)
	for rhs := 0; rhs < m; rhs++ {
		// found holds the minimal LHSs discovered so far for this RHS.
		var found []bitset.Set
		level := []bitset.Set{bitset.New(m)} // start with ∅
		for len(level) > 0 {
			var next []bitset.Set
			seen := make(map[string]struct{})
			for _, lhs := range level {
				// Skip candidates that specialize an already-found FD.
				minimal := true
				for _, g := range found {
					if g.IsSubsetOf(lhs) {
						minimal = false
						break
					}
				}
				if !minimal {
					continue
				}
				if Holds(rel, ns, lhs, rhs) {
					found = append(found, lhs)
					out.Add(FD{Lhs: lhs, Rhs: rhs})
					continue
				}
				// Invalid: specialize by each absent attribute ≠ rhs.
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
	return out
}
