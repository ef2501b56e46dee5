package pli

import (
	"math/rand"
	"testing"

	"hyfd/internal/bitset"
)

// TestAgreeSetMatchesPerBit checks the word-wise kernel against a per-bit
// reference on random record pairs at 1, 63, 64, 65 and 130 attributes.
// Ids come from tiny domains with Singleton among them, so most attributes
// agree, many pairs are both Singleton, and every word sees both bit
// values. The destination starts full and is reused, so a word the kernel
// fails to overwrite keeps stale bits.
func TestAgreeSetMatchesPerBit(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 63, 64, 65, 130} {
		dst := bitset.New(n).Flip()
		a, b := make([]int32, n), make([]int32, n)
		for trial := 0; trial < 2000; trial++ {
			domain := int32(1 + r.Intn(4))
			for i := range a {
				a[i] = r.Int31n(domain+1) - 1 // Singleton is -1
				b[i] = r.Int31n(domain+1) - 1
				if r.Intn(3) == 0 {
					b[i] = a[i]
				}
			}
			want := bitset.New(n)
			for i := range a {
				if a[i] != Singleton && a[i] == b[i] {
					want.Set(i)
				}
			}
			AgreeSet(dst, a, b)
			if !dst.Equal(want) || dst.Cardinality() != want.Cardinality() {
				t.Fatalf("n=%d trial %d: agree set %v, want %v\na=%v\nb=%v", n, trial, dst, want, a, b)
			}
		}
	}
}

func TestAgreeSetWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("records of another width than the set did not panic")
		}
	}()
	AgreeSet(bitset.New(3), []int32{0, 1}, []int32{0, 1})
}
