package fdtree

import (
	"hyfd/internal/bitset"
	"hyfd/internal/invariant"
)

// This file hosts the FDTree's build-tag-gated structural invariants
// (-tags hyfdinvariants; see internal/invariant). The checked contract:
//
//   - rhsFds ⊆ rhsAttrs at every node, and every child's rhsAttrs is
//     covered by its parent's (the summaries that prune generalization
//     lookups are true supersets);
//   - no node sits deeper than the maxLhs bound;
//   - nodeCount matches the allocated nodes (the Guardian budgets on it);
//   - after Remove, no prunable husk survives: a non-root leaf always
//     carries at least one summary bit.
//
// Add and Remove run cheap path-local checks, so armed runs stay linear in
// the number of mutations; SetMaxLhs, which prunes everywhere, re-verifies
// the whole tree, and so do the engine's batch boundaries through
// AssertConsistent: the end of every Inductor.Update and of every
// validation level.

// assertPathMarked verifies, after a successful Add of lhs → rhs, that every
// node along the path advertises rhs in its subtree summary and the terminal
// node carries the FD.
func (t *Tree) assertPathMarked(lhs bitset.Set, rhs int) {
	n := t.root
	invariant.Assert(n.rhsAttrs.Test(rhs), "Add: root summary misses rhs %d", rhs)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		n = n.children[a]
		invariant.Assert(n != nil, "Add: path node for attr %d missing", a)
		invariant.Assert(n.rhsAttrs.Test(rhs), "Add: summary at attr %d misses rhs %d", a, rhs)
	}
	invariant.Assert(n.rhsFds.Test(rhs), "Add: terminal node does not carry rhs %d", rhs)
}

// assertPathRepaired verifies, after a successful Remove of lhs → rhs, the
// contract above on the removed path: every node that survives on it, and
// the terminal node no longer carries rhs.
func (t *Tree) assertPathRepaired(lhs bitset.Set, rhs int) {
	n, depth := t.root, 0
	for a := lhs.NextSet(0); ; a = lhs.NextSet(a + 1) {
		t.assertLocal(n, depth, "Remove")
		if a < 0 {
			invariant.Assert(!n.rhsFds.Test(rhs), "Remove: terminal node still carries rhs %d", rhs)
			return
		}
		if n = n.children[a]; n == nil {
			return // the rest of the path was pruned
		}
		depth++
	}
}

// AssertConsistent verifies the whole-tree contract above; op names the
// mutation or batch for the violation report. It walks every node, so
// callers run it at batch boundaries, guarded by invariant.Enabled.
func (t *Tree) AssertConsistent(op string) {
	count := 0
	t.assertNode(t.root, 0, op, &count)
	invariant.Assert(count == t.nodeCount, "%s: nodeCount %d does not match %d allocated nodes",
		op, t.nodeCount, count)
}

func (t *Tree) assertNode(n *node, depth int, op string, count *int) {
	*count++
	t.assertLocal(n, depth, op)
	for _, c := range n.children {
		if c != nil {
			t.assertNode(c, depth+1, op, count)
		}
	}
}

// assertLocal verifies the contract at one node: its depth is within the
// bound, its summary covers its own RHSs and its children's summaries, and
// a non-root leaf is no prunable husk.
func (t *Tree) assertLocal(n *node, depth int, op string) {
	invariant.Assert(depth <= t.maxLhs, "%s: node at depth %d exceeds maxLhs %d", op, depth, t.maxLhs)
	invariant.Assert(n.rhsFds.IsSubsetOf(n.rhsAttrs), "%s: rhsFds not covered by rhsAttrs at depth %d", op, depth)
	leaf := true
	for a, c := range n.children {
		if c == nil {
			continue
		}
		leaf = false
		invariant.Assert(c.rhsAttrs.IsSubsetOf(n.rhsAttrs),
			"%s: child %d summary not covered by parent at depth %d", op, a, depth)
	}
	if leaf && depth > 0 {
		invariant.Assert(!n.rhsAttrs.IsEmpty(), "%s: empty non-root leaf at depth %d was not pruned", op, depth)
	}
}
