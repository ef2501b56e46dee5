package fdtree

import (
	"cmp"
	"slices"
	"testing"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/invariant"
)

// model is the naive FD store FuzzTreeDifferential holds the tree to: one
// entry per stored FD, keyed by LHS key and RHS.
type model struct {
	n      int
	maxLhs int
	fds    map[string]fd.FD
	// exact is false while a SetFds edit may have left stale summaries, and
	// with them nodes that carry no FD; SetMaxLhs, which rebuilds every
	// summary, makes the node set predictable again.
	exact bool
}

func modelKey(lhs bitset.Set, rhs int) string {
	return lhs.Key() + string(rune(rhs))
}

// canonical returns the model's FDs in canonical order, sorted here by
// RHS, LHS size and LHS Key() string.
func (m *model) canonical() []fd.FD {
	out := make([]fd.FD, 0, len(m.fds))
	for _, f := range m.fds {
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b fd.FD) int {
		if c := cmp.Compare(a.Rhs, b.Rhs); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Lhs.Cardinality(), b.Lhs.Cardinality()); c != 0 {
			return c
		}
		return cmp.Compare(a.Lhs.Key(), b.Lhs.Key())
	})
	return out
}

// nodes returns the node count a tree without stale summaries has for the
// model's FDs: the root and every distinct prefix of a stored LHS.
func (m *model) nodes() int {
	prefixes := map[string]bool{}
	for _, f := range m.fds {
		p := bitset.New(m.n)
		for a := f.Lhs.NextSet(0); a >= 0; a = f.Lhs.NextSet(a + 1) {
			p.Set(a)
			prefixes[p.Key()] = true
		}
	}
	return 1 + len(prefixes)
}

// fuzzInput reads the fuzzer's operation stream; it reads zeros once the
// data runs out.
type fuzzInput struct {
	data []byte
	n    int
}

func (in *fuzzInput) next() int {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return int(b)
}

// set reads an attribute set: over up to eight attributes a bit mask, over
// wider universes a count of up to three and that many attributes.
func (in *fuzzInput) set() bitset.Set {
	s := bitset.New(in.n)
	if in.n <= 8 {
		c := in.next()
		for a := 0; a < in.n; a++ {
			if c>>a&1 != 0 {
				s.Set(a)
			}
		}
		return s
	}
	for k := in.next() % 4; k > 0; k-- {
		s.Set(in.next() % in.n)
	}
	return s
}

// FuzzTreeDifferential runs a fuzzed sequence of tree operations against
// the naive model over 1 to 72 attributes: Add, AddRhss, Remove,
// SetMaxLhs, SetFds on a level's node, ClearCovered, GetFdsAndGenerals and
// FindFdOrGeneral. After every operation the tree must hold the model's
// FDs, in its canonical order through FDs, and NodeCount must equal a
// recount of the levels; while no summary is stale it must also equal the
// model's prefix count, so every emptied node was freed. Built with
// -tags hyfdinvariants, AssertConsistent checks the arena and its free
// list after every operation too.
//
// The universe has 1 + size%72 attributes. Each operation is one byte, op
// % 8, followed by its arguments: attribute sets (see fuzzInput.set) and
// single bytes for an RHS, an LHS bound or a level and node pick.
func FuzzTreeDifferential(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0x03, 2, 0, 0x01, 2, 5, 0x07, 0x04, 2, 0x03, 2, 7, 0x07, 3, 6, 0, 0})
	f.Add(uint8(7), []byte{1, 0x11, 0x2c, 1, 0x01, 0xf0, 0, 0x13, 4, 3, 1, 4, 0x1f, 0x60, 2, 0x11, 3})
	f.Add(uint8(69), []byte{0, 3, 0, 64, 69, 5, 1, 2, 65, 3, 2, 7, 66, 0, 1, 68, 1, 6, 1, 0, 5, 3, 0, 64, 69, 0, 2, 0})
	f.Add(uint8(69), []byte{1, 2, 5, 67, 2, 1, 68, 0, 3, 64, 66, 1, 9, 6, 2, 3, 3, 2, 5, 67, 9, 7, 2, 5, 67, 1, 4, 2, 64, 65, 2, 1, 68})
	f.Add(uint8(0), []byte{0, 0, 0, 2, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := 1 + int(size)%72
		in := &fuzzInput{data: data, n: n}
		tr := New(n)
		m := &model{n: n, maxLhs: n, fds: map[string]fd.FD{}, exact: true}
		for step := 0; len(in.data) > 0 && step < 64; step++ {
			op := in.next() % 8
			switch op {
			case 0: // Add
				lhs, rhs := in.set(), in.next()%n
				_, present := m.fds[modelKey(lhs, rhs)]
				want := !present && lhs.Cardinality() <= m.maxLhs
				if got := tr.Add(lhs, rhs); got != want {
					t.Fatalf("step %d: Add(%v, %d) = %v, want %v", step, lhs, rhs, got, want)
				}
				if want {
					m.fds[modelKey(lhs, rhs)] = fd.FD{Lhs: lhs, Rhs: rhs}
				}
			case 1: // AddRhss
				lhs, rhss := in.set(), in.set()
				tr.AddRhss(lhs, rhss)
				if lhs.Cardinality() <= m.maxLhs {
					for r := rhss.NextSet(0); r >= 0; r = rhss.NextSet(r + 1) {
						m.fds[modelKey(lhs, r)] = fd.FD{Lhs: lhs, Rhs: r}
					}
				}
			case 2: // Remove
				lhs, rhs := in.set(), in.next()%n
				_, present := m.fds[modelKey(lhs, rhs)]
				if got := tr.Remove(lhs, rhs); got != present {
					t.Fatalf("step %d: Remove(%v, %d) = %v, want %v", step, lhs, rhs, got, present)
				}
				delete(m.fds, modelKey(lhs, rhs))
			case 3: // SetMaxLhs
				k := in.next() % (n + 1)
				tr.SetMaxLhs(k)
				if k < m.maxLhs {
					for key, f := range m.fds {
						if f.Lhs.Cardinality() > k {
							delete(m.fds, key)
						}
					}
					m.exact = true
				}
				m.maxLhs = k
			case 4: // SetFds: unmark one RHS of a level's node, as the validator does
				d, pick := in.next(), in.next()
				level := tr.GetLevel(d % (tr.Depth() + 1))
				if len(level) == 0 {
					break
				}
				nd := level[pick%len(level)]
				valid := nd.RhsFds()
				if r := valid.NextSet(pick % n); r >= 0 {
					valid.Clear(r)
					delete(m.fds, modelKey(nd.Lhs, r))
					m.exact = false
				}
				nd.SetFds(valid)
			case 5: // ClearCovered
				lhs, rhss := in.set(), in.set()
				want := rhss.Clone()
				for _, f := range m.fds {
					if f.Lhs.IsSubsetOf(lhs) {
						want.Clear(f.Rhs)
					}
				}
				got := rhss.Clone()
				tr.ClearCovered(lhs, got)
				if !got.Equal(want) {
					t.Fatalf("step %d: ClearCovered(%v, %v) left %v, want %v", step, lhs, rhss, got, want)
				}
			case 6: // GetFdsAndGenerals
				lhs, rhss := in.set(), in.set()
				want := map[string]Generalization{}
				for _, f := range m.fds {
					if !f.Lhs.IsSubsetOf(lhs) || !rhss.Test(f.Rhs) {
						continue
					}
					g, ok := want[f.Lhs.Key()]
					if !ok {
						g = Generalization{Lhs: f.Lhs, Rhss: bitset.New(n)}
						want[f.Lhs.Key()] = g
					}
					g.Rhss.Set(f.Rhs)
				}
				if got := tr.GetFdsAndGenerals(lhs, rhss); !sameGenerals(got, want) {
					t.Fatalf("step %d: GetFdsAndGenerals(%v, %v) = %v, want %v", step, lhs, rhss, got, want)
				}
			default: // FindFdOrGeneral
				lhs, rhs := in.set(), in.next()%n
				want := false
				for _, f := range m.fds {
					want = want || f.Rhs == rhs && f.Lhs.IsSubsetOf(lhs)
				}
				if got := tr.FindFdOrGeneral(lhs, rhs); got != want {
					t.Fatalf("step %d: FindFdOrGeneral(%v, %d) = %v, want %v", step, lhs, rhs, got, want)
				}
			}
			checkTree(t, step, op, tr, m)
		}
	})
}

// checkTree holds the tree to the model after one operation.
func checkTree(t *testing.T, step, op int, tr *Tree, m *model) {
	t.Helper()
	if invariant.Enabled {
		tr.AssertConsistent("fuzz")
	}
	recount := 0
	for d := 0; d <= tr.Depth(); d++ {
		recount += len(tr.GetLevel(d))
	}
	if tr.NodeCount() != recount {
		t.Fatalf("step %d (op %d): NodeCount %d, levels hold %d nodes", step, op, tr.NodeCount(), recount)
	}
	if want := m.nodes(); m.exact && recount != want {
		t.Fatalf("step %d (op %d): %d nodes, the model's LHS prefixes need %d", step, op, recount, want)
	}
	want := m.canonical()
	got := tr.FDs().All()
	if tr.CountFDs() != len(want) || len(got) != len(want) {
		t.Fatalf("step %d (op %d): CountFDs %d, FDs lists %d, the model holds %d", step, op, tr.CountFDs(), len(got), len(want))
	}
	for i := range want {
		if got[i].Rhs != want[i].Rhs || !got[i].Lhs.Equal(want[i].Lhs) {
			t.Fatalf("step %d (op %d): FDs()[%d] = %v, want %v", step, op, i, got[i], want[i])
		}
	}
}
