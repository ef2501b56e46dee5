package pli

import "hyfd/internal/bitset"

// AgreeSet overwrites dst with the attributes on which the compressed
// records a and b agree: those whose cluster ids are equal and not
// Singleton, since a stripped cluster holds one record. Each word of dst is
// built from up to 64 branch-free compares, so the cost does not depend on
// where the records agree, and every word is written, so dst needs no
// clearing. dst's universe must be len(a) attributes, and b must be as
// long as a.
func AgreeSet(dst bitset.Set, a, b []int32) {
	if dst.Universe() != len(a) || len(b) != len(a) {
		panic("pli: agree set over records of another width")
	}
	for w := 0; len(a) > 0; w++ {
		n := min(len(a), 64)
		ra, rb := a[:n], b[:n]
		var word uint64
		// Walk the word's attributes downward, shifting each bit in from
		// the bottom. Singleton is the only negative id, so or-ing x's sign
		// bit into x^y leaves d zero iff the ids agree, and d-1 then wraps
		// to set bit 63.
		for j := n - 1; j >= 0; j-- {
			x := ra[j]
			d := uint32(x^rb[j]) | uint32(x)&(1<<31)
			word = word<<1 | (uint64(d)-1)>>63
		}
		dst.SetWord(w, word)
		a, b = a[n:], b[n:]
	}
}
