// Package fdtree implements the FDTree of Flach & Savnik as used by HyFD
// (§7, Fig. 4): a prefix tree that maps FD left-hand sides to nodes (paths
// follow ascending attribute order) and marks right-hand sides in per-node
// bitsets. It supports the generalization lookups that drive both the
// Inductor's specialization (Alg. 3) and the Validator's minimality pruning
// (Alg. 4), plus the max-LHS result pruning hook used by the memory
// Guardian (§9).
package fdtree

import (
	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/invariant"
)

type node struct {
	// children[a] descends to LHSs extending this node's path by attribute
	// a; nil until needed. Paths visit attributes in ascending order.
	//
	// Determinism audit: children is a dense slice indexed by attribute, so
	// every for-range over it below (isLeaf, recomputeRhsAttrs, Children,
	// collectLevel, prune, collectFDs, ...) visits attributes in ascending
	// order — traversal output is deterministic without sorting, and no map
	// iteration occurs anywhere in this package.
	children []*node
	// rhsFds marks attributes A such that path → A is an FD in the tree.
	rhsFds bitset.Set
	// rhsAttrs is a superset of all rhsFds bits in this subtree; it prunes
	// generalization lookups. It is maintained exactly on Add/Remove and
	// allowed to go stale (superset) when the Validator unmarks FDs in
	// place, which never affects lookup correctness.
	rhsAttrs bitset.Set
}

// Tree is an FDTree over a fixed attribute universe. The zero value is not
// usable; call New.
type Tree struct {
	numAttrs  int
	maxLhs    int // maximum LHS cardinality; results deeper than this are refused
	root      *node
	nodeCount int
}

// New returns an empty FDTree over numAttrs attributes with unbounded LHS
// size.
func New(numAttrs int) *Tree {
	t := &Tree{numAttrs: numAttrs, maxLhs: numAttrs}
	t.root = t.newNode()
	return t
}

func (t *Tree) newNode() *node {
	t.nodeCount++
	return &node{
		children: make([]*node, t.numAttrs),
		rhsFds:   bitset.New(t.numAttrs),
		rhsAttrs: bitset.New(t.numAttrs),
	}
}

// NumAttrs returns the attribute universe size.
func (t *Tree) NumAttrs() int { return t.numAttrs }

// NodeCount returns the number of allocated tree nodes (memory telemetry
// for the Guardian).
func (t *Tree) NodeCount() int { return t.nodeCount }

// MaxLhs returns the current LHS cardinality bound.
func (t *Tree) MaxLhs() int { return t.maxLhs }

// ApproxBytes estimates the tree's live heap footprint, the quantity the
// Guardian budgets against.
func (t *Tree) ApproxBytes() int {
	perNode := 8*t.numAttrs + 2*8*t.wordsPerSet() + 64 // child ptrs + two bitsets + header slack
	return t.nodeCount * perNode
}

// wordsPerSet is the word count of one attribute set of the universe.
func (t *Tree) wordsPerSet() int { return (t.numAttrs + 63) / 64 }

// Add inserts lhs → rhs. It reports false if the FD was already present or
// exceeds the max LHS bound.
func (t *Tree) Add(lhs bitset.Set, rhs int) bool {
	if lhs.Cardinality() > t.maxLhs {
		return false
	}
	n := t.root
	n.rhsAttrs.Set(rhs)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		c := n.children[a]
		if c == nil {
			c = t.newNode()
			n.children[a] = c
		}
		c.rhsAttrs.Set(rhs)
		n = c
	}
	if n.rhsFds.Test(rhs) {
		return false
	}
	n.rhsFds.Set(rhs)
	if invariant.Enabled {
		t.assertPathMarked(lhs, rhs)
	}
	return true
}

// AddRhss inserts lhs → A for every A in rhss in one walk down lhs's path.
// It leaves the tree as one Add per A would, and like Add it refuses an LHS
// beyond the max LHS bound.
func (t *Tree) AddRhss(lhs bitset.Set, rhss bitset.Set) {
	if rhss.IsEmpty() || lhs.Cardinality() > t.maxLhs {
		return
	}
	n := t.root
	n.rhsAttrs.UnionWith(rhss)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		c := n.children[a]
		if c == nil {
			c = t.newNode()
			n.children[a] = c
		}
		c.rhsAttrs.UnionWith(rhss)
		n = c
	}
	n.rhsFds.UnionWith(rhss)
	if invariant.Enabled {
		for r := rhss.NextSet(0); r >= 0; r = rhss.NextSet(r + 1) {
			t.assertPathMarked(lhs, r)
		}
	}
}

// ContainsFd reports whether exactly lhs → rhs is in the tree.
func (t *Tree) ContainsFd(lhs bitset.Set, rhs int) bool {
	n := t.root
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		if n = n.children[a]; n == nil {
			return false
		}
	}
	return n.rhsFds.Test(rhs)
}

// FindFdOrGeneral reports whether the tree contains lhs' → rhs for some
// lhs' ⊆ lhs (including lhs itself).
func (t *Tree) FindFdOrGeneral(lhs bitset.Set, rhs int) bool {
	return t.findGeneral(t.root, lhs, rhs, 0)
}

func (t *Tree) findGeneral(n *node, lhs bitset.Set, rhs int, from int) bool {
	if n.rhsFds.Test(rhs) {
		return true
	}
	for a := lhs.NextSet(from); a >= 0; a = lhs.NextSet(a + 1) {
		c := n.children[a]
		if c != nil && c.rhsAttrs.Test(rhs) && t.findGeneral(c, lhs, rhs, a+1) {
			return true
		}
	}
	return false
}

// Generalization is an LHS found in the tree by GetFdsAndGenerals, with the
// queried RHSs its node marks.
type Generalization struct {
	Lhs, Rhss bitset.Set
}

// GetFdsAndGenerals returns every lhs' ⊆ lhs whose node marks an RHS in
// rhss, paired with those RHSs, in depth-first order (Alg. 3 line 10 for
// all of rhss at once: the FDs an observed non-FD invalidates). For each
// A in rhss, the entries holding A list exactly the LHSs a walk for A
// alone would find, in the same order.
func (t *Tree) GetFdsAndGenerals(lhs, rhss bitset.Set) []Generalization {
	var out []Generalization
	t.collectGenerals(t.root, lhs, rhss, 0, bitset.New(t.numAttrs), &out)
	return out
}

func (t *Tree) collectGenerals(n *node, lhs, rhss bitset.Set, from int, path bitset.Set, out *[]Generalization) {
	if n.rhsFds.Intersects(rhss) {
		*out = append(*out, Generalization{Lhs: path.Clone(), Rhss: n.rhsFds.And(rhss)})
	}
	for a := lhs.NextSet(from); a >= 0; a = lhs.NextSet(a + 1) {
		c := n.children[a]
		if c == nil || !c.rhsAttrs.Intersects(rhss) {
			continue
		}
		path.Set(a)
		t.collectGenerals(c, lhs, rhss, a+1, path, out)
		path.Clear(a)
	}
}

// ClearCovered removes from rhss, in place, every A for which the tree
// holds lhs' → A with lhs' ⊆ lhs: FindFdOrGeneral for all of rhss in one
// walk, which stops once rhss is empty.
func (t *Tree) ClearCovered(lhs, rhss bitset.Set) {
	t.clearCovered(t.root, lhs, rhss, 0)
}

// clearCovered reports whether rhss ran empty.
func (t *Tree) clearCovered(n *node, lhs, rhss bitset.Set, from int) bool {
	rhss.AndNotWith(n.rhsFds)
	if rhss.IsEmpty() {
		return true
	}
	for a := lhs.NextSet(from); a >= 0; a = lhs.NextSet(a + 1) {
		c := n.children[a]
		if c != nil && c.rhsAttrs.Intersects(rhss) && t.clearCovered(c, lhs, rhss, a+1) {
			return true
		}
	}
	return false
}

// Remove deletes exactly lhs → rhs, pruning nodes that no longer carry any
// FD and repairing the rhsAttrs summaries along the path. It reports
// whether the FD was present.
func (t *Tree) Remove(lhs bitset.Set, rhs int) bool {
	removed := t.remove(t.root, lhs, 0, rhs)
	if invariant.Enabled && removed {
		t.assertPathRepaired(lhs, rhs)
	}
	return removed
}

func (t *Tree) remove(n *node, lhs bitset.Set, from int, rhs int) bool {
	a := lhs.NextSet(from)
	if a < 0 {
		if !n.rhsFds.Test(rhs) {
			return false
		}
		n.rhsFds.Clear(rhs)
	} else {
		c := n.children[a]
		if c == nil || !t.remove(c, lhs, a+1, rhs) {
			return false
		}
		if c.rhsAttrs.IsEmpty() && c.isLeaf() {
			n.children[a] = nil
			t.nodeCount--
		}
	}
	t.recomputeRhsAttrs(n)
	return true
}

func (n *node) isLeaf() bool {
	for _, c := range n.children {
		if c != nil {
			return false
		}
	}
	return true
}

// recomputeRhsAttrs rebuilds n's subtree summary in its own words, so a
// Remove whose path survives allocates nothing.
func (t *Tree) recomputeRhsAttrs(n *node) {
	n.rhsAttrs.CopyFrom(n.rhsFds)
	for _, c := range n.children {
		if c != nil {
			n.rhsAttrs.UnionWith(c.rhsAttrs)
		}
	}
}

// Node is a handle to a tree node paired with the LHS its path encodes;
// the Validator traverses levels of these.
type Node struct {
	n   *node
	Lhs bitset.Set
}

// RhsFds returns a copy of the FD right-hand sides marked at this node.
func (nd Node) RhsFds() bitset.Set { return nd.n.rhsFds.Clone() }

// HasFds reports whether any FD ends at this node.
func (nd Node) HasFds() bool { return !nd.n.rhsFds.IsEmpty() }

// SetFds replaces the marked right-hand sides of this node with valid
// (Alg. 4 line 14), copying into the node's own words. The subtree
// summaries stay as supersets, which keeps lookups correct.
func (nd Node) SetFds(valid bitset.Set) {
	nd.n.rhsFds.CopyFrom(valid)
}

// Children returns handles to this node's children in ascending attribute
// order.
func (nd Node) Children() []Node {
	var out []Node
	for a, c := range nd.n.children {
		if c != nil {
			out = append(out, Node{n: c, Lhs: nd.Lhs.With(a)})
		}
	}
	return out
}

// GetLevel returns all nodes whose LHS has the given cardinality
// (Alg. 4's currentLevel initialization).
func (t *Tree) GetLevel(depth int) []Node {
	var out []Node
	t.collectLevel(t.root, bitset.New(t.numAttrs), 0, depth, &out)
	return out
}

func (t *Tree) collectLevel(n *node, path bitset.Set, d, depth int, out *[]Node) {
	if d == depth {
		*out = append(*out, Node{n: n, Lhs: path.Clone()})
		return
	}
	for a, c := range n.children {
		if c == nil {
			continue
		}
		path.Set(a)
		t.collectLevel(c, path, d+1, depth, out)
		path.Clear(a)
	}
}

// AddAndGetIfNew inserts lhs → rhs and returns a handle to its terminal
// node if the FD was newly added, or a zero Node with ok=false if it was
// already present or refused by the LHS bound (Alg. 4 line 31).
func (t *Tree) AddAndGetIfNew(lhs bitset.Set, rhs int) (Node, bool) {
	if lhs.Cardinality() > t.maxLhs {
		return Node{}, false
	}
	if !t.Add(lhs, rhs) {
		return Node{}, false
	}
	n := t.root
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		n = n.children[a]
	}
	return Node{n: n, Lhs: lhs.Clone()}, true
}

// SetMaxLhs lowers the LHS cardinality bound and discards every FD whose
// LHS is larger (the Guardian's §9 pruning). Raising the bound is allowed
// but cannot resurrect discarded results.
func (t *Tree) SetMaxLhs(maxLhs int) {
	if maxLhs < 0 {
		maxLhs = 0
	}
	shrink := maxLhs < t.maxLhs
	t.maxLhs = maxLhs
	if shrink {
		t.prune(t.root, 0)
		if invariant.Enabled {
			t.AssertConsistent("SetMaxLhs")
		}
	}
}

func (t *Tree) prune(n *node, depth int) {
	for a, c := range n.children {
		if c == nil {
			continue
		}
		if depth+1 > t.maxLhs {
			n.children[a] = nil
			t.nodeCount -= countNodes(c)
			continue
		}
		t.prune(c, depth+1)
		if c.rhsAttrs.IsEmpty() && c.isLeaf() {
			n.children[a] = nil
			t.nodeCount--
		}
	}
	t.recomputeRhsAttrs(n)
}

func countNodes(n *node) int {
	total := 1
	for _, c := range n.children {
		if c != nil {
			total += countNodes(c)
		}
	}
	return total
}

// Depth returns the depth of the deepest node, i.e. the largest LHS
// cardinality any stored path reaches.
func (t *Tree) Depth() int {
	return depth(t.root)
}

func depth(n *node) int {
	d := 0
	for _, c := range n.children {
		if c != nil {
			if cd := depth(c) + 1; cd > d {
				d = cd
			}
		}
	}
	return d
}

// FDs returns every FD stored in the tree as a canonical fd.Set. It
// collects the FDs in one walk, with all their LHSs in one backing array,
// and sorts them once.
func (t *Tree) FDs() *fd.Set {
	fds := make([]fd.FD, 0, t.CountFDs())
	words := make([]uint64, cap(fds)*t.wordsPerSet())
	t.collectFDs(t.root, bitset.New(t.numAttrs), &fds, &words)
	return fd.NewSetOf(t.numAttrs, fds)
}

func (t *Tree) collectFDs(n *node, path bitset.Set, out *[]fd.FD, words *[]uint64) {
	w := t.wordsPerSet()
	for rhs := n.rhsFds.NextSet(0); rhs >= 0; rhs = n.rhsFds.NextSet(rhs + 1) {
		*out = append(*out, fd.FD{Lhs: path.CloneInto(*words), Rhs: rhs})
		*words = (*words)[w:]
	}
	for a, c := range n.children {
		if c == nil {
			continue
		}
		path.Set(a)
		t.collectFDs(c, path, out, words)
		path.Clear(a)
	}
}

// CountFDs returns the number of FDs in the tree without materializing them.
func (t *Tree) CountFDs() int {
	return countFDs(t.root)
}

func countFDs(n *node) int {
	total := n.rhsFds.Cardinality()
	for _, c := range n.children {
		if c != nil {
			total += countFDs(c)
		}
	}
	return total
}
