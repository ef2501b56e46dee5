// Package bitset is a corpus stub of the real bitset package: a value type
// over a shared backing array, with the mutators the bitsetalias analyzer
// tracks. The analyzer skips this package itself.
package bitset

// Set is a fixed-universe bitset; the value is a view over shared words.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over a universe of n attributes.
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Set marks bit i in the shared backing array.
func (s Set) Set(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Clear unmarks bit i in the shared backing array.
func (s Set) Clear(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// SetWord overwrites word i of the shared backing array with w.
func (s Set) SetWord(i int, w uint64) { s.words[i] = w }

// Test reports whether bit i is set.
func (s Set) Test(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// Clone returns an independent copy.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// CopyFrom overwrites the shared backing array with t's words.
func (s Set) CopyFrom(t Set) { copy(s.words, t.words) }

// UnionWith ors t's words into the shared backing array.
func (s Set) UnionWith(t Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}
