package hitset

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
)

// mt is MinimalTransversals without a deadline.
func mt(n int, sets []bitset.Set, exclude int) []bitset.Set {
	got, err := MinimalTransversals(context.Background(), n, sets, exclude)
	if err != nil {
		panic(err) // unreachable: the context is never canceled
	}
	return got
}

// TestCanceledEnumeration: a canceled context stops an enumeration whose
// first level already holds more than checkInterval candidates.
func TestCanceledEnumeration(t *testing.T) {
	const n = 2 * checkInterval
	low, high := bitset.New(n), bitset.New(n)
	for a := 0; a < n/2; a++ {
		low.Set(a)
		high.Set(n/2 + a)
	}
	sets := []bitset.Set{low, high}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := MinimalTransversals(ctx, n, sets, -1)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("got %v, %v; want nil, context.Canceled", got, err)
	}
}

func keys(sets []bitset.Set) map[string]bool {
	m := make(map[string]bool, len(sets))
	for _, s := range sets {
		m[s.Key()] = true
	}
	return m
}

func TestConventions(t *testing.T) {
	if got := mt(4, nil, -1); len(got) != 1 || !got[0].IsEmpty() {
		t.Fatalf("empty collection: %v", got)
	}
	if got := mt(4, []bitset.Set{bitset.New(4)}, -1); got != nil {
		t.Fatalf("collection with empty set: %v", got)
	}
}

func TestSimpleCovers(t *testing.T) {
	// Sets {0,1} and {1,2}: minimal transversals are {1}, {0,2}.
	sets := []bitset.Set{
		bitset.FromIndices(4, 0, 1),
		bitset.FromIndices(4, 1, 2),
	}
	got := keys(mt(4, sets, -1))
	if len(got) != 2 || !got[bitset.FromIndices(4, 1).Key()] || !got[bitset.FromIndices(4, 0, 2).Key()] {
		t.Fatalf("transversals = %v", mt(4, sets, -1))
	}
}

func TestExclude(t *testing.T) {
	sets := []bitset.Set{
		bitset.FromIndices(4, 0, 1),
		bitset.FromIndices(4, 1, 2),
	}
	got := mt(4, sets, 1)
	if len(got) != 1 || !got[0].Equal(bitset.FromIndices(4, 0, 2)) {
		t.Fatalf("transversals excluding 1 = %v", got)
	}
	// Excluding an attribute can make the problem infeasible.
	lone := []bitset.Set{bitset.FromIndices(3, 2)}
	if got := mt(3, lone, 2); got != nil {
		t.Fatalf("infeasible exclusion returned %v", got)
	}
}

// bruteTransversals enumerates all subsets and filters minimal ones.
func bruteTransversals(n int, sets []bitset.Set, exclude int) map[string]bool {
	for _, s := range sets {
		if s.IsEmpty() {
			return nil
		}
	}
	hits := func(x bitset.Set) bool {
		for _, s := range sets {
			if !x.Intersects(s) {
				return false
			}
		}
		return true
	}
	var all []bitset.Set
	for mask := 0; mask < 1<<n; mask++ {
		if exclude >= 0 && mask&(1<<exclude) != 0 {
			continue
		}
		x := bitset.New(n)
		for a := 0; a < n; a++ {
			if mask&(1<<a) != 0 {
				x.Set(a)
			}
		}
		if hits(x) {
			all = append(all, x)
		}
	}
	out := make(map[string]bool)
	for _, x := range all {
		minimal := true
		for _, y := range all {
			if y.IsProperSubsetOf(x) {
				minimal = false
				break
			}
		}
		if minimal {
			out[x.Key()] = true
		}
	}
	return out
}

func TestQuickAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		numSets := r.Intn(7)
		var sets []bitset.Set
		for i := 0; i < numSets; i++ {
			s := bitset.New(n)
			for a := 0; a < n; a++ {
				if r.Intn(3) == 0 {
					s.Set(a)
				}
			}
			if s.IsEmpty() {
				s.Set(r.Intn(n))
			}
			sets = append(sets, s)
		}
		exclude := -1
		if r.Intn(2) == 0 {
			exclude = r.Intn(n)
		}
		got := keys(mt(n, sets, exclude))
		want := bruteTransversals(n, sets, exclude)
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
