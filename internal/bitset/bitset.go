// Package bitset provides fixed-width bitsets over a small universe of
// attributes. HyFD encodes left-hand sides of functional dependencies and
// observed FD-violations as bitsets, so these operations sit on the hot path
// of both discovery phases.
//
// A Set is a value type backed by a []uint64 word slice. All binary
// operations require both operands to share the same universe width; this is
// checked only when the word counts differ, keeping the common path free of
// branches.
package bitset

import (
	"bytes"
	"fmt"
	"math/bits"
	"strings"
	"unsafe"
)

const wordBits = 64

// Set is a bitset over a fixed universe of n attributes, indexed 0..n-1.
// The zero value is an empty set over an empty universe; use New to create
// a set with capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over a universe of n attributes.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set over a universe of n attributes with the given
// indices set.
func FromIndices(n int, indices ...int) Set {
	s := New(n)
	for _, i := range indices {
		s.Set(i)
	}
	return s
}

// Universe returns the number of attributes in the set's universe.
func (s Set) Universe() int { return s.n }

// Set marks attribute i as a member.
func (s Set) Set(i int) {
	if uint(i) >= uint(s.n) {
		s.outOfRange(i)
	}
	s.words[i>>6] |= 1 << (i & 63)
}

// Clear removes attribute i.
func (s Set) Clear(i int) {
	if uint(i) >= uint(s.n) {
		s.outOfRange(i)
	}
	s.words[i>>6] &^= 1 << (i & 63)
}

// outOfRange panics on an index outside the universe. It formats the
// message out of line, so Set and Clear stay cheap enough to inline.
//
//go:noinline
func (s Set) outOfRange(i int) {
	panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
}

// SetWord overwrites word i of s, the attributes 64i to 64i+63, with w in
// place. Bits of w at or beyond the universe are dropped.
func (s Set) SetWord(i int, w uint64) {
	if rem := s.n - i*wordBits; rem < wordBits {
		w &= 1<<uint(max(rem, 0)) - 1
	}
	s.words[i] = w
}

// Test reports whether attribute i is a member.
func (s Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CloneInto copies s into the front of words and returns a set over that
// storage, capped at s's word count so it never reaches into the rest of
// words. Carving many sets out of one array costs one allocation for all
// of them.
func (s Set) CloneInto(words []uint64) Set {
	w := words[:len(s.words):len(s.words)]
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// View returns the set over a universe of n attributes whose words are
// words itself, capped at the universe's word count: writes through either
// show in the other. words must hold no bit at or beyond n. Keeping many
// sets in one word array, as the FDTree's node arena does, needs no
// allocation per set.
func View(n int, words []uint64) Set {
	w := (n + wordBits - 1) / wordBits
	return Set{words: words[:w:w], n: n}
}

// Word returns word i of s, the attributes 64i to 64i+63.
func (s Set) Word(i int) uint64 { return s.words[i] }

// CopyFrom overwrites s in place with the members of t, reusing s's words.
func (s Set) CopyFrom(t Set) {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	copy(s.words, t.words)
}

// UnionWith adds every member of t to s in place (s ∪= t).
func (s Set) UnionWith(t Set) {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndNotWith removes every member of t from s in place (s \= t).
func (s Set) AndNotWith(t Set) {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// With returns a copy of s with attribute i added.
func (s Set) With(i int) Set {
	c := s.Clone()
	c.Set(i)
	return c
}

// Without returns a copy of s with attribute i removed.
func (s Set) Without(i int) Set {
	c := s.Clone()
	c.Clear(i)
	return c
}

// Cardinality returns the number of members.
func (s Set) Cardinality() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether no attribute is set.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same members.
func (s Set) Equal(t Set) bool {
	if len(s.words) != len(t.words) {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every member of s is a member of t.
func (s Set) IsSubsetOf(t Set) bool {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// IsProperSubsetOf reports whether s ⊂ t.
func (s Set) IsProperSubsetOf(t Set) bool {
	return s.IsSubsetOf(t) && !s.Equal(t)
}

// Intersects reports whether s and t share at least one member.
func (s Set) Intersects(t Set) bool {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// And returns s ∩ t as a new set.
func (s Set) And(t Set) Set {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	r := Set{words: make([]uint64, len(s.words)), n: s.n}
	for i := range s.words {
		r.words[i] = s.words[i] & t.words[i]
	}
	return r
}

// Or returns s ∪ t as a new set.
func (s Set) Or(t Set) Set {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	r := Set{words: make([]uint64, len(s.words)), n: s.n}
	for i := range s.words {
		r.words[i] = s.words[i] | t.words[i]
	}
	return r
}

// AndNot returns s \ t as a new set.
func (s Set) AndNot(t Set) Set {
	if len(s.words) != len(t.words) {
		panic("bitset: universe mismatch")
	}
	r := Set{words: make([]uint64, len(s.words)), n: s.n}
	for i := range s.words {
		r.words[i] = s.words[i] &^ t.words[i]
	}
	return r
}

// Flip returns the complement of s within its universe.
func (s Set) Flip() Set {
	r := Set{words: make([]uint64, len(s.words)), n: s.n}
	for i := range s.words {
		r.words[i] = ^s.words[i]
	}
	// Mask off bits beyond the universe in the last word.
	if rem := s.n % wordBits; rem != 0 && len(r.words) > 0 {
		r.words[len(r.words)-1] &= (1 << uint(rem)) - 1
	}
	return r
}

// NextSet returns the index of the first member >= i, or -1 if none exists.
func (s Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i / wordBits
	word := s.words[w] >> (uint(i) % wordBits)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}

// Indices returns the members of s in ascending order.
func (s Set) Indices() []int {
	return s.AppendIndices(make([]int, 0, s.Cardinality()))
}

// AppendIndices appends the members of s to dst in ascending order and
// returns the extended slice.
func (s Set) AppendIndices(dst []int) []int {
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		dst = append(dst, i)
	}
	return dst
}

// ForEach calls fn for every member of s in ascending order. It stops early
// if fn returns false.
func (s Set) ForEach(fn func(i int) bool) {
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		if !fn(i) {
			return
		}
	}
}

// Key returns a string usable as a map key identifying the set's contents.
// Two sets over the same universe have equal keys iff they are Equal. The
// returned string aliases no mutable memory.
func (s Set) Key() string {
	return string(s.keyBytes()) // string() copies
}

// AppendKey appends the bytes of s.Key() to dst and returns the extended
// slice. A map lookup through m[string(buf)] then identifies the set
// without allocating a key string.
func (s Set) AppendKey(dst []byte) []byte {
	return append(dst, s.keyBytes()...)
}

// keyBytes views the words of s as bytes; the view aliases s.
func (s Set) keyBytes() []byte {
	if len(s.words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s.words[0])), len(s.words)*8)
}

// CompareKeys orders sets by their Key() strings without building them: its
// sign is the sign of strings.Compare(a.Key(), b.Key()).
func CompareKeys(a, b Set) int {
	return bytes.Compare(a.keyBytes(), b.keyBytes())
}

// CompareCardinalityDesc is a comparison function ordering sets by
// descending cardinality, breaking ties by lexicographic word order so the
// ordering is total and deterministic.
func CompareCardinalityDesc(a, b Set) int {
	ca, cb := a.Cardinality(), b.Cardinality()
	if ca != cb {
		return cb - ca
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			if a.words[i] < b.words[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// String renders the set as {i,j,...} for debugging.
func (s Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
