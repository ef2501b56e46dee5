package bitset

import (
	"hash/maphash"
	"math/bits"
)

// HashSet is a set of bitsets over one universe that answers membership
// without building a key per lookup. Its members lie back to back in one
// flat word arena, in insertion order, and an open-addressed table of int32
// slots holds each member's index+1 (0 = empty) at the slot its words hash
// to, probing linearly. The table doubles before its load exceeds one half.
// The hash folds each word in with a multiply under two secret keys drawn
// per set, so crafted input cannot force long probe chains; nothing
// observable depends on them.
//
// Has only reads, so any number of goroutines may call it while no Add
// runs.
type HashSet struct {
	width int      // words per member
	words []uint64 // member i is words[i*width : (i+1)*width]
	slots []int32
	// hashMask maps a hash to its first slot: len(slots)-1, or 0 under the
	// collide test seam, which starts every probe at slot 0.
	hashMask   uint64
	collide    bool
	len        int
	key0, key1 uint64
}

// minSlots is the table size of an empty HashSet.
const minSlots = 16

// NewHashSet returns an empty set of bitsets over a universe of n
// attributes.
func NewHashSet(n int) *HashSet {
	return newHashSet(n, false)
}

// newHashSet is NewHashSet with a test seam: collide hashes every member to
// slot 0, so each lookup walks the probe chain.
func newHashSet(n int, collide bool) *HashSet {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	seed := maphash.MakeSeed()
	h := &HashSet{
		width:   (n + wordBits - 1) / wordBits,
		collide: collide,
		key0:    maphash.String(seed, "key0"),
		key1:    maphash.String(seed, "key1") | 1,
	}
	h.resize(minSlots)
	return h
}

// Len returns the number of members.
func (h *HashSet) Len() int { return h.len }

// Has reports whether s is a member.
func (h *HashSet) Has(s Set) bool {
	_, found := h.find(h.wordsOf(s))
	return found
}

// Add adds s, copying its words, and reports whether it was not a member
// before.
func (h *HashSet) Add(s Set) bool {
	w := h.wordsOf(s)
	slot, found := h.find(w)
	if found {
		return false
	}
	if 2*(h.len+1) > len(h.slots) {
		h.resize(2 * len(h.slots))
		slot, _ = h.find(w)
	}
	h.words = append(h.words, w...)
	h.len++
	h.slots[slot] = int32(h.len)
	return true
}

// wordsOf returns the words of s, which must share the set's universe
// width.
func (h *HashSet) wordsOf(s Set) []uint64 {
	if len(s.words) != h.width {
		panic("bitset: universe mismatch")
	}
	return s.words
}

// hash folds the words of a member into one hash with wyhash's
// multiply-and-fold step under the secret keys.
func (h *HashSet) hash(w []uint64) uint64 {
	x := h.key0
	for _, v := range w {
		hi, lo := bits.Mul64(x^v, h.key1)
		x = hi ^ lo
	}
	return x
}

// find returns the slot holding w and true, or the empty slot that ends
// w's probe chain and false.
func (h *HashSet) find(w []uint64) (uint64, bool) {
	mask := uint64(len(h.slots) - 1)
	slot := h.hash(w) & h.hashMask
	for g := h.slots[slot]; g != 0; g = h.slots[slot] {
		if equalWords(h.words[int(g-1)*h.width:][:h.width], w) {
			return slot, true
		}
		slot = (slot + 1) & mask
	}
	return slot, false
}

// resize rebuilds the table with size slots, a power of two, and re-enters
// every member. Members are distinct, so each one takes the first empty
// slot of its probe chain.
func (h *HashSet) resize(size int) {
	h.slots = make([]int32, size)
	h.hashMask = uint64(size - 1)
	if h.collide {
		h.hashMask = 0
	}
	mask := uint64(size - 1)
	for i := 0; i < h.len; i++ {
		slot := h.hash(h.words[i*h.width:][:h.width]) & h.hashMask
		for h.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		h.slots[slot] = int32(i) + 1
	}
}

// equalWords reports whether two word slices of equal length are equal.
func equalWords(a, b []uint64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
