package bitset

import (
	"math/rand"
	"testing"
)

// nearSet returns a random set over n attributes whose words are mostly
// zero or all ones, so that many sets agree on all but one word.
func nearSet(r *rand.Rand, n int) Set {
	s := New(n)
	for i := range s.words {
		switch r.Intn(4) {
		case 0:
			s.SetWord(i, ^uint64(0))
		case 1:
			s.SetWord(i, r.Uint64())
		case 2:
			s.SetWord(i, 1<<uint(r.Intn(wordBits)))
		}
	}
	return s
}

// TestHashSetMatchesMap: Add and Has answer as a map keyed by Key does, on
// vectors of 0 to 3 words, from the empty HashSet on, with and without the
// collide seam, which starts every probe at slot 0 so that each lookup
// walks the whole probe chain. The small pools repeat members heavily; the
// large one grows the table through at least four doublings. Every Add and
// every probe of a random non-member is checked against the reference.
func TestHashSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 40, 64, 65, 128, 129, 190} {
		for _, pool := range []int{1, 6, 300, 1500} {
			for _, collide := range []bool{false, true} {
				h := newHashSet(n, collide)
				ref := make(map[string]struct{})
				if h.Len() != 0 || h.Has(New(n)) || h.Has(nearSet(r, n)) {
					t.Fatalf("n=%d: empty set has members", n)
				}
				members := make([]Set, pool)
				for i := range members {
					members[i] = nearSet(r, n)
				}
				members[0] = New(n) // the empty bitset is a member too
				for op := 0; op < 3*pool; op++ {
					s := members[r.Intn(pool)]
					_, dup := ref[s.Key()]
					if added := h.Add(s); added == dup {
						t.Fatalf("n=%d pool=%d collide=%v op %d: Add(%v) = %v with %d members, want %v", n, pool, collide, op, s, added, h.Len(), !dup)
					}
					ref[s.Key()] = struct{}{}
					if !h.Has(s) || h.Len() != len(ref) {
						t.Fatalf("n=%d pool=%d collide=%v op %d: Has(%v) = %v, Len %d, want true, %d", n, pool, collide, op, s, h.Has(s), h.Len(), len(ref))
					}
					probe := nearSet(r, n)
					if _, want := ref[probe.Key()]; h.Has(probe) != want {
						t.Fatalf("n=%d pool=%d collide=%v op %d: Has(%v) = %v, want %v", n, pool, collide, op, probe, !want, want)
					}
				}
				for _, s := range members {
					if _, want := ref[s.Key()]; h.Has(s) != want {
						t.Fatalf("n=%d pool=%d collide=%v: Has(%v) = %v at the end, want %v", n, pool, collide, s, !want, want)
					}
				}
				if 2*h.Len() > len(h.slots) {
					t.Fatalf("n=%d pool=%d: %d members in %d slots, load above one half", n, pool, h.Len(), len(h.slots))
				}
				if n >= 40 && pool == 1500 && len(h.slots) < minSlots<<4 {
					t.Fatalf("n=%d: %d members in %d slots, want four doublings", n, h.Len(), len(h.slots))
				}
			}
		}
	}
}

// TestHashSetCopiesMembers: Add keeps a copy, so a member survives later
// writes to the set it was added from, and a set of another universe width
// is rejected.
func TestHashSetCopiesMembers(t *testing.T) {
	h := NewHashSet(70)
	s := FromIndices(70, 1, 69)
	h.Add(s)
	s.Set(5)
	if h.Has(s) || !h.Has(FromIndices(70, 1, 69)) || h.Len() != 1 {
		t.Fatal("member changed with the set it was added from")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add of a set of another width did not panic")
		}
	}()
	h.Add(New(200))
}

func TestSetWordDropsBitsBeyondUniverse(t *testing.T) {
	s := New(70)
	s.SetWord(0, ^uint64(0))
	s.SetWord(1, ^uint64(0))
	if got := s.Cardinality(); got != 70 || !s.Equal(New(70).Flip()) {
		t.Fatalf("Cardinality = %d, want 70", got)
	}
	s.SetWord(0, 1<<3)
	if got := s.Indices(); len(got) != 7 || got[0] != 3 || got[1] != 64 {
		t.Fatalf("Indices = %v, want 3 and 64..69", got)
	}
}
