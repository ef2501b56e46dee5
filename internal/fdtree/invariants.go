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
//   - a node's childMask marks exactly the attributes its child row links;
//   - no node sits deeper than the maxLhs bound;
//   - nodeCount matches the reachable nodes (the Guardian budgets on it),
//     each reached once;
//   - the free list accounts for the rest of the arena: live plus free
//     slots equal the slots handed out, and every free slot is zero and
//     unreachable;
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
	id := int32(0)
	invariant.Assert(t.set(id, attrsSet).Test(rhs), "Add: root summary misses rhs %d", rhs)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		id = t.row(id)[a]
		invariant.Assert(id != 0, "Add: path node for attr %d missing", a)
		invariant.Assert(t.set(id, attrsSet).Test(rhs), "Add: summary at attr %d misses rhs %d", a, rhs)
	}
	invariant.Assert(t.set(id, fdsSet).Test(rhs), "Add: terminal node does not carry rhs %d", rhs)
}

// assertPathRepaired verifies, after a successful Remove of lhs → rhs, the
// contract above on the removed path: every node that survives on it, and
// the terminal node no longer carries rhs.
func (t *Tree) assertPathRepaired(lhs bitset.Set, rhs int) {
	id, depth := int32(0), 0
	for a := lhs.NextSet(0); ; a = lhs.NextSet(a + 1) {
		t.assertLocal(id, depth, "Remove")
		if a < 0 {
			invariant.Assert(!t.set(id, fdsSet).Test(rhs), "Remove: terminal node still carries rhs %d", rhs)
			return
		}
		if id = t.row(id)[a]; id == 0 {
			return // the rest of the path was pruned
		}
		depth++
	}
}

// AssertConsistent verifies the whole-tree contract above; op names the
// mutation or batch for the violation report. It walks every node and
// every free slot, so callers run it at batch boundaries, guarded by
// invariant.Enabled.
func (t *Tree) AssertConsistent(op string) {
	reached := make([]bool, t.slots)
	count := 0
	t.assertNode(0, 0, op, &count, reached)
	invariant.Assert(count == t.nodeCount, "%s: nodeCount %d does not match %d reachable nodes",
		op, t.nodeCount, count)
	invariant.Assert(t.nodeCount+len(t.free) == t.slots, "%s: %d live and %d free slots, %d handed out",
		op, t.nodeCount, len(t.free), t.slots)
	for _, id := range t.free {
		invariant.Assert(int(id) < t.slots && !reached[id], "%s: free slot %d is reachable or listed twice", op, id)
		reached[id] = true
		for _, c := range t.row(id) {
			invariant.Assert(c == 0, "%s: free slot %d links a child", op, id)
		}
		for k := range 3 {
			invariant.Assert(isZero(t.words(id, k)), "%s: free slot %d holds bits", op, id)
		}
	}
}

func (t *Tree) assertNode(id int32, depth int, op string, count *int, reached []bool) {
	invariant.Assert(int(id) < len(reached) && !reached[id], "%s: node %d reached twice or out of the arena", op, id)
	reached[id] = true
	*count++
	t.assertLocal(id, depth, op)
	for _, c := range t.row(id) {
		if c != 0 {
			t.assertNode(c, depth+1, op, count, reached)
		}
	}
}

// assertLocal verifies the contract at one node: its depth is within the
// bound, its child mask matches its child row, its summary covers its own
// RHSs and its children's summaries, and a non-root leaf is no prunable
// husk.
func (t *Tree) assertLocal(id int32, depth int, op string) {
	invariant.Assert(depth <= t.maxLhs, "%s: node at depth %d exceeds maxLhs %d", op, depth, t.maxLhs)
	attrs, mask := t.set(id, attrsSet), t.set(id, maskSet)
	invariant.Assert(t.set(id, fdsSet).IsSubsetOf(attrs), "%s: rhsFds not covered by rhsAttrs at depth %d", op, depth)
	for a, c := range t.row(id) {
		invariant.Assert((c != 0) == mask.Test(a), "%s: child mask and row disagree on attr %d at depth %d", op, a, depth)
		if c != 0 {
			invariant.Assert(t.set(c, attrsSet).IsSubsetOf(attrs),
				"%s: child %d summary not covered by parent at depth %d", op, a, depth)
		}
	}
	if depth > 0 && mask.IsEmpty() {
		invariant.Assert(!attrs.IsEmpty(), "%s: empty non-root leaf at depth %d was not pruned", op, depth)
	}
}
