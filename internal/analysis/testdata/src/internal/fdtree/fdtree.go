// Package fdtree seeds bitsetalias violations: mutating bitset methods on
// values flowing from map elements or function results alias (or discard)
// shared backing words.
package fdtree

import "hyfd/internal/bitset"

// covers maps attribute names to candidate sets.
type covers map[string]bitset.Set

// Mutate writes through aliasing temporaries.
func Mutate(c covers, fresh func() bitset.Set) {
	c["a"].Set(1)    // want "bitsetalias: Set on a bitset obtained from a map element"
	fresh().Clear(2) // want "bitsetalias: Clear on a bitset obtained from a function result"
	s := fresh()
	s.Set(3)
	s.Clear(1)
}

// MutateInPlace writes whole word arrays through aliasing temporaries.
func MutateInPlace(c covers, fresh func() bitset.Set) {
	c["a"].CopyFrom(fresh())  // want "bitsetalias: CopyFrom on a bitset obtained from a map element"
	fresh().CopyFrom(c["a"])  // want "bitsetalias: CopyFrom on a bitset obtained from a function result"
	c["a"].UnionWith(fresh()) // want "bitsetalias: UnionWith on a bitset obtained from a map element"
	fresh().UnionWith(c["a"]) // want "bitsetalias: UnionWith on a bitset obtained from a function result"
	c["a"].SetWord(0, 1)      // want "bitsetalias: SetWord on a bitset obtained from a map element"
	fresh().SetWord(0, 1)     // want "bitsetalias: SetWord on a bitset obtained from a function result"
	s := fresh()
	s.SetWord(0, 1)
	s.CopyFrom(c["a"])
	s.UnionWith(fresh())
}
