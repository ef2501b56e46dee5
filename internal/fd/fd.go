// Package fd defines the functional dependency model shared by all discovery
// algorithms: the FD value type, canonical FD sets, minimization, and a
// brute-force reference discoverer used to cross-validate every algorithm in
// the test suite.
package fd

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hyfd/internal/bitset"
	"hyfd/internal/invariant"
	"hyfd/internal/relation"
)

// FD is a functional dependency Lhs → Rhs over a fixed attribute universe.
// Rhs is a single attribute index; X → YZ is represented as two FDs.
type FD struct {
	Lhs bitset.Set
	Rhs int
}

// String renders the FD using attribute indices, e.g. "{0,2} -> 1".
func (f FD) String() string {
	return fmt.Sprintf("%s -> %d", f.Lhs.String(), f.Rhs)
}

// Format renders the FD using the relation's column names.
func (f FD) Format(rel *relation.Relation) string {
	names := make([]string, 0, f.Lhs.Cardinality())
	f.Lhs.ForEach(func(i int) bool {
		names = append(names, rel.Columns[i])
		return true
	})
	return fmt.Sprintf("[%s] -> %s", strings.Join(names, ","), rel.Columns[f.Rhs])
}

// keyBuf holds the key of an FD over up to 448 attributes on the stack.
const keyBuf = 64

// appendKey appends f's map key: the LHS word bytes, then the RHS in four
// bytes. All LHS keys of one universe have the same length, so two FDs of
// one set share a key iff they are equal.
func (f FD) appendKey(dst []byte) []byte {
	dst = f.Lhs.AppendKey(dst)
	return binary.LittleEndian.AppendUint32(dst, uint32(f.Rhs))
}

// compare orders FDs canonically: ascending by RHS, then ascending LHS
// cardinality, then by LHS Key() string.
func compare(a, b FD) int {
	if a.Rhs != b.Rhs {
		return cmp.Compare(a.Rhs, b.Rhs)
	}
	if ca, cb := a.Lhs.Cardinality(), b.Lhs.Cardinality(); ca != cb {
		return cmp.Compare(ca, cb)
	}
	return bitset.CompareKeys(a.Lhs, b.Lhs)
}

// sortCanonical returns fds in canonical order. It sorts precomputed keys:
// RHS and LHS cardinality, then the first eight bytes of the LHS key read
// big-endian, which order as those bytes do. Whole LHS keys are compared
// only on ties, which need a universe of more than 64 attributes.
func sortCanonical(fds []FD) []FD {
	type sortKey struct {
		hi, lo uint64
		i      int
	}
	keys := make([]sortKey, len(fds))
	var buf [keyBuf]byte
	for i, f := range fds {
		k := sortKey{hi: uint64(f.Rhs)<<32 | uint64(f.Lhs.Cardinality()), i: i}
		if b := f.Lhs.AppendKey(buf[:0]); len(b) >= 8 {
			k.lo = binary.BigEndian.Uint64(b)
		}
		keys[i] = k
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.hi != b.hi {
			return cmp.Compare(a.hi, b.hi)
		}
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		return bitset.CompareKeys(fds[a.i].Lhs, fds[b.i].Lhs)
	})
	out := make([]FD, len(fds))
	for j, k := range keys {
		out[j] = fds[k.i]
	}
	return out
}

// Set is a collection of distinct FDs over one attribute universe. As long
// as its FDs arrive in canonical order, it keeps them sorted and finds them
// by binary search. The first FD added out of order switches it to a map
// keyed by appendKey.
type Set struct {
	fds  []FD
	n    int                 // universe size
	seen map[string]struct{} // nil while fds is in canonical order
}

// NewSet returns an empty FD set over a universe of n attributes.
func NewSet(n int) *Set {
	return &Set{n: n}
}

// NewCanonicalSet returns the set of fds over a universe of n attributes.
// fds must be distinct and in canonical order, as fdtree.Tree.FDs emits
// them; the set keeps the slice as it is, without copying or sorting it,
// and any later Add appends to a copy.
func NewCanonicalSet(n int, fds []FD) *Set {
	if invariant.Enabled {
		for i := 1; i < len(fds); i++ {
			if compare(fds[i-1], fds[i]) >= 0 { // boxing the FDs for Assert allocates
				invariant.Assert(false, "NewCanonicalSet: %v listed before %v", fds[i-1], fds[i])
			}
		}
	}
	return &Set{fds: fds[:len(fds):len(fds)], n: n}
}

// Universe returns the attribute universe size.
func (s *Set) Universe() int { return s.n }

// search finds f in the sorted fds, or where it would go.
func (s *Set) search(f FD) (int, bool) {
	return slices.BinarySearchFunc(s.fds, f, compare)
}

// Add inserts the FD if not already present; it reports whether it was new.
func (s *Set) Add(f FD) bool {
	var buf [keyBuf]byte
	if s.seen == nil {
		if len(s.fds) == 0 || compare(s.fds[len(s.fds)-1], f) < 0 {
			s.fds = append(s.fds, f)
			return true
		}
		if _, found := s.search(f); found {
			return false
		}
		s.seen = make(map[string]struct{}, len(s.fds)+1)
		for _, g := range s.fds {
			s.seen[string(g.appendKey(buf[:0]))] = struct{}{}
		}
	}
	k := f.appendKey(buf[:0])
	if _, dup := s.seen[string(k)]; dup {
		return false
	}
	s.seen[string(k)] = struct{}{}
	s.fds = append(s.fds, f)
	return true
}

// Contains reports whether the exact FD is in the set.
func (s *Set) Contains(f FD) bool {
	if s.seen == nil {
		_, found := s.search(f)
		return found
	}
	var buf [keyBuf]byte
	_, ok := s.seen[string(f.appendKey(buf[:0]))]
	return ok
}

// Size returns the number of FDs.
func (s *Set) Size() int { return len(s.fds) }

// All returns the FDs in canonical order: ascending by RHS, then ascending
// LHS cardinality, then lexicographic LHS. The returned slice is fresh.
func (s *Set) All() []FD {
	if s.seen != nil {
		return sortCanonical(s.fds)
	}
	return append([]FD(nil), s.fds...)
}

// Sorted returns the FDs in canonical order, like All, but shares the
// set's own slice while the set holds them in that order: the caller must
// not modify the slice or its LHSs.
func (s *Set) Sorted() []FD {
	if s.seen != nil {
		return sortCanonical(s.fds)
	}
	return s.fds[:len(s.fds):len(s.fds)]
}

// Equal reports whether both sets contain exactly the same FDs.
func (s *Set) Equal(t *Set) bool {
	if s.Size() != t.Size() {
		return false
	}
	for _, f := range s.fds {
		if !t.Contains(f) {
			return false
		}
	}
	return true
}

// Diff returns FDs present in s but not in t, in canonical order.
func (s *Set) Diff(t *Set) []FD {
	var out []FD
	for _, f := range s.All() {
		if !t.Contains(f) {
			out = append(out, f)
		}
	}
	return out
}

// Minimize returns the subset of s whose FDs have no valid generalization
// inside s: f is dropped iff some g in s has g.Rhs == f.Rhs and
// g.Lhs ⊂ f.Lhs.
func (s *Set) Minimize() *Set {
	byRhs := make(map[int][]FD)
	for _, f := range s.fds {
		byRhs[f.Rhs] = append(byRhs[f.Rhs], f)
	}
	out := NewSet(s.n)
	for _, group := range byRhs {
		sort.Slice(group, func(i, j int) bool {
			return group[i].Lhs.Cardinality() < group[j].Lhs.Cardinality()
		})
		var kept []FD
		for _, f := range group {
			minimal := true
			for _, g := range kept {
				if g.Lhs.IsProperSubsetOf(f.Lhs) {
					minimal = false
					break
				}
			}
			if minimal {
				kept = append(kept, f)
				out.Add(f)
			}
		}
	}
	return out
}

// String renders the set in canonical order, one FD per line.
func (s *Set) String() string {
	var sb strings.Builder
	for _, f := range s.All() {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
