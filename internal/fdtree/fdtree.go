// Package fdtree implements the FDTree of Flach & Savnik as used by HyFD
// (§7, Fig. 4): a prefix tree that maps FD left-hand sides to nodes (paths
// follow ascending attribute order) and marks right-hand sides in per-node
// bitsets. It supports the generalization lookups that drive both the
// Inductor's specialization (Alg. 3) and the Validator's minimality pruning
// (Alg. 4), plus the max-LHS result pruning hook used by the memory
// Guardian (§9).
package fdtree

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/invariant"
)

// The arena is cut into pages of pageNodes nodes each.
const (
	pageShift = 6
	pageNodes = 1 << pageShift
	pageMask  = pageNodes - 1
)

// The three bitsets of a node, by their block in a page.
const (
	maskSet  = iota // childMask: the attributes that have a child
	fdsSet          // rhsFds: the attributes A such that path → A is in the tree
	attrsSet        // rhsAttrs: a superset of all rhsFds bits in the subtree
)

// Tree is an FDTree over a fixed attribute universe. The zero value is not
// usable; call New.
//
// Nodes live in an arena and are addressed by int32 ids. The root is id 0,
// so a child id of 0 means no child. A node has a child row of numAttrs
// ids, where entry a is the child that extends the node's path by
// attribute a, and three bitsets of w words each: childMask marks the
// attributes whose entry is set, rhsFds the RHSs of the FDs that end at
// the node, and rhsAttrs summarizes the subtree's rhsFds to prune
// generalization lookups. rhsAttrs is maintained exactly on Add/Remove and
// allowed to go stale (superset) when the Validator unmarks FDs in place,
// which never affects lookup correctness.
//
// The arena grows a page at a time, each page holding the child rows of
// pageNodes nodes in one []int32 and their bitsets in one []uint64, a
// block per kind of bitset, so growth never copies a live node and the
// collector scans no node. Slots that Remove and SetMaxLhs free are zeroed
// and go on a free list, which new nodes take from first.
//
// Determinism audit: every walk below visits a node's children by
// ascending attribute, through childMask, so traversal output is
// deterministic without sorting, and no map iteration occurs anywhere in
// this package. Which slot a node occupies is never observable.
type Tree struct {
	numAttrs  int
	w         int // words per attribute set
	maxLhs    int // maximum LHS cardinality; results deeper than this are refused
	kids      [][]int32
	bits      [][]uint64
	slots     int     // slots handed out, live or free
	free      []int32 // freed slots, all zero
	nodeCount int     // live nodes
}

// New returns an empty FDTree over numAttrs attributes with unbounded LHS
// size.
func New(numAttrs int) *Tree {
	t := &Tree{numAttrs: numAttrs, w: (numAttrs + 63) / 64, maxLhs: numAttrs}
	t.newNode()
	return t
}

// newNode returns a zeroed slot for a new node, preferring a freed one.
func (t *Tree) newNode() int32 {
	t.nodeCount++
	if k := len(t.free); k > 0 {
		id := t.free[k-1]
		t.free = t.free[:k-1]
		return id
	}
	if t.slots == math.MaxInt32 {
		panic("fdtree: node ids exhausted")
	}
	if t.slots == len(t.kids)*pageNodes {
		t.kids = append(t.kids, make([]int32, pageNodes*t.numAttrs))
		t.bits = append(t.bits, make([]uint64, 3*pageNodes*t.w))
	}
	t.slots++
	return int32(t.slots - 1)
}

// release zeroes the subtree under id and puts its slots on the free list.
func (t *Tree) release(id int32) {
	row := t.row(id)
	for j, m := range t.words(id, maskSet) {
		for ; m != 0; m &= m - 1 {
			a := j<<6 | bits.TrailingZeros64(m)
			t.release(row[a])
			row[a] = 0
		}
	}
	for k := range 3 {
		clear(t.words(id, k))
	}
	t.free = append(t.free, id)
	t.nodeCount--
}

// row returns node id's child row. Pages never move, so the row stays
// valid while nodes are added.
func (t *Tree) row(id int32) []int32 {
	o := int(id&pageMask) * t.numAttrs
	return t.kids[id>>pageShift][o : o+t.numAttrs : o+t.numAttrs]
}

// words returns the words of node id's bitset k, in place.
func (t *Tree) words(id int32, k int) []uint64 {
	o := (k<<pageShift | int(id&pageMask)) * t.w
	return t.bits[id>>pageShift][o : o+t.w : o+t.w]
}

// set views node id's bitset k as a Set; writes go to the node.
func (t *Tree) set(id int32, k int) bitset.Set {
	return bitset.View(t.numAttrs, t.words(id, k))
}

// has reports whether attribute i is in the bitset of words; like
// bitset.Set.Test, it is false for an index outside the universe.
func has(words []uint64, i int) bool {
	return uint(i>>6) < uint(len(words)) && words[i>>6]&(1<<(i&63)) != 0
}

// isZero reports whether the bitset of words is empty.
func isZero(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

// above masks word j, at or past word start>>6, to the attributes start
// and up: a lookup below a node extends its path only by attributes past
// the path's last one.
func above(j, start int) uint64 {
	if j > start>>6 {
		return ^uint64(0)
	}
	return ^uint64(0) << (start & 63)
}

// isLeaf reports whether node id has no child.
func (t *Tree) isLeaf(id int32) bool { return isZero(t.words(id, maskSet)) }

// extend returns id's child by attribute a, adding it if it is missing.
func (t *Tree) extend(id int32, a int) int32 {
	if c := t.row(id)[a]; c != 0 {
		return c
	}
	c := t.newNode()
	t.row(id)[a] = c
	t.words(id, maskSet)[a>>6] |= 1 << (a & 63)
	return c
}

// unlink detaches id's child by attribute a and frees its subtree.
func (t *Tree) unlink(id int32, a int) {
	row := t.row(id)
	c := row[a]
	row[a] = 0
	t.words(id, maskSet)[a>>6] &^= 1 << (a & 63)
	t.release(c)
}

// NumAttrs returns the attribute universe size.
func (t *Tree) NumAttrs() int { return t.numAttrs }

// NodeCount returns the number of live tree nodes (memory telemetry for
// the Guardian).
func (t *Tree) NodeCount() int { return t.nodeCount }

// MaxLhs returns the current LHS cardinality bound.
func (t *Tree) MaxLhs() int { return t.maxLhs }

// ApproxBytes estimates the tree's live heap footprint, the quantity the
// Guardian budgets against. It keeps the estimate of a pointer-based node
// (a pointer per child, two bitsets and header slack), not the arena's
// size: the Guardian's decisions and the pinned footprint telemetry follow
// it.
func (t *Tree) ApproxBytes() int {
	perNode := 8*t.numAttrs + 2*8*t.w + 64 // child ptrs + two bitsets + header slack
	return t.nodeCount * perNode
}

// Add inserts lhs → rhs. It reports false if the FD was already present or
// exceeds the max LHS bound.
func (t *Tree) Add(lhs bitset.Set, rhs int) bool {
	if lhs.Cardinality() > t.maxLhs {
		return false
	}
	id := int32(0)
	attrs := t.set(id, attrsSet)
	attrs.Set(rhs)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		id = t.extend(id, a)
		attrs = t.set(id, attrsSet)
		attrs.Set(rhs)
	}
	fds := t.set(id, fdsSet)
	if fds.Test(rhs) {
		return false
	}
	fds.Set(rhs)
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
	id := int32(0)
	attrs := t.set(id, attrsSet)
	attrs.UnionWith(rhss)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		id = t.extend(id, a)
		attrs = t.set(id, attrsSet)
		attrs.UnionWith(rhss)
	}
	fds := t.set(id, fdsSet)
	fds.UnionWith(rhss)
	if invariant.Enabled {
		for r := rhss.NextSet(0); r >= 0; r = rhss.NextSet(r + 1) {
			t.assertPathMarked(lhs, r)
		}
	}
}

// ContainsFd reports whether exactly lhs → rhs is in the tree.
func (t *Tree) ContainsFd(lhs bitset.Set, rhs int) bool {
	id := int32(0)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		if id = t.row(id)[a]; id == 0 {
			return false
		}
	}
	return has(t.words(id, fdsSet), rhs)
}

// FindFdOrGeneral reports whether the tree contains lhs' → rhs for some
// lhs' ⊆ lhs (including lhs itself).
func (t *Tree) FindFdOrGeneral(lhs bitset.Set, rhs int) bool {
	return t.findGeneral(0, lhs, rhs, 0)
}

func (t *Tree) findGeneral(id int32, lhs bitset.Set, rhs int, start int) bool {
	if has(t.words(id, fdsSet), rhs) {
		return true
	}
	row, mask := t.row(id), t.words(id, maskSet)
	for j := start >> 6; j < len(mask); j++ {
		for m := lhs.Word(j) & mask[j] & above(j, start); m != 0; m &= m - 1 {
			a := j<<6 | bits.TrailingZeros64(m)
			c := row[a]
			if has(t.words(c, attrsSet), rhs) && t.findGeneral(c, lhs, rhs, a+1) {
				return true
			}
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
	var words []uint64 // each found LHS's words, then its RHSs'
	t.collectGenerals(0, lhs, rhss, 0, bitset.New(t.numAttrs), &words)
	if len(words) == 0 {
		return nil
	}
	w := t.w
	out := make([]Generalization, len(words)/(2*w))
	for i := range out {
		g := words[2*i*w:]
		out[i] = Generalization{Lhs: bitset.View(t.numAttrs, g), Rhss: bitset.View(t.numAttrs, g[w:])}
	}
	return out
}

func (t *Tree) collectGenerals(id int32, lhs, rhss bitset.Set, start int, path bitset.Set, words *[]uint64) {
	if fds := t.set(id, fdsSet); fds.Intersects(rhss) {
		for j := range t.w {
			*words = append(*words, path.Word(j))
		}
		for j := range t.w {
			*words = append(*words, fds.Word(j)&rhss.Word(j))
		}
	}
	row, mask := t.row(id), t.words(id, maskSet)
	for j := start >> 6; j < len(mask); j++ {
		for m := lhs.Word(j) & mask[j] & above(j, start); m != 0; m &= m - 1 {
			a := j<<6 | bits.TrailingZeros64(m)
			c := row[a]
			if !t.set(c, attrsSet).Intersects(rhss) {
				continue
			}
			path.Set(a)
			t.collectGenerals(c, lhs, rhss, a+1, path, words)
			path.Clear(a)
		}
	}
}

// ClearCovered removes from rhss, in place, every A for which the tree
// holds lhs' → A with lhs' ⊆ lhs: FindFdOrGeneral for all of rhss in one
// walk, which stops once rhss is empty.
func (t *Tree) ClearCovered(lhs, rhss bitset.Set) {
	t.clearCovered(0, lhs, rhss, 0)
}

// clearCovered reports whether rhss ran empty.
func (t *Tree) clearCovered(id int32, lhs, rhss bitset.Set, start int) bool {
	rhss.AndNotWith(t.set(id, fdsSet))
	if rhss.IsEmpty() {
		return true
	}
	row, mask := t.row(id), t.words(id, maskSet)
	for j := start >> 6; j < len(mask); j++ {
		for m := lhs.Word(j) & mask[j] & above(j, start); m != 0; m &= m - 1 {
			a := j<<6 | bits.TrailingZeros64(m)
			c := row[a]
			if t.set(c, attrsSet).Intersects(rhss) && t.clearCovered(c, lhs, rhss, a+1) {
				return true
			}
		}
	}
	return false
}

// Remove deletes exactly lhs → rhs, pruning nodes that no longer carry any
// FD and repairing the rhsAttrs summaries along the path. It reports
// whether the FD was present.
func (t *Tree) Remove(lhs bitset.Set, rhs int) bool {
	removed := t.remove(0, lhs, 0, rhs)
	if invariant.Enabled && removed {
		t.assertPathRepaired(lhs, rhs)
	}
	return removed
}

func (t *Tree) remove(id int32, lhs bitset.Set, from int, rhs int) bool {
	a := lhs.NextSet(from)
	if a < 0 {
		fds := t.set(id, fdsSet)
		if !fds.Test(rhs) {
			return false
		}
		fds.Clear(rhs)
	} else {
		c := t.row(id)[a]
		if c == 0 || !t.remove(c, lhs, a+1, rhs) {
			return false
		}
		if isZero(t.words(c, attrsSet)) && t.isLeaf(c) {
			t.unlink(id, a)
		}
	}
	t.recomputeRhsAttrs(id)
	return true
}

// recomputeRhsAttrs rebuilds id's subtree summary in place, so a Remove
// whose path survives allocates nothing.
func (t *Tree) recomputeRhsAttrs(id int32) {
	attrs, row := t.words(id, attrsSet), t.row(id)
	copy(attrs, t.words(id, fdsSet))
	for j, m := range t.words(id, maskSet) {
		for ; m != 0; m &= m - 1 {
			for k, w := range t.words(row[j<<6|bits.TrailingZeros64(m)], attrsSet) {
				attrs[k] |= w
			}
		}
	}
}

// Node is a handle to a tree node paired with the LHS its path encodes;
// the Validator traverses levels of these. A handle stays valid while
// nodes are added; once Remove or SetMaxLhs frees its node, the slot may
// be reused by another.
type Node struct {
	t   *Tree
	id  int32
	Lhs bitset.Set
}

// RhsFds returns a copy of the FD right-hand sides marked at this node.
func (nd Node) RhsFds() bitset.Set { return nd.t.set(nd.id, fdsSet).Clone() }

// HasFds reports whether any FD ends at this node.
func (nd Node) HasFds() bool { return !isZero(nd.t.words(nd.id, fdsSet)) }

// SetFds replaces the marked right-hand sides of this node with valid
// (Alg. 4 line 14), copying into the node's own words. The subtree
// summaries stay as supersets, which keeps lookups correct.
func (nd Node) SetFds(valid bitset.Set) {
	fds := nd.t.set(nd.id, fdsSet)
	fds.CopyFrom(valid)
}

// GetLevel returns all nodes whose LHS has the given cardinality
// (Alg. 4's currentLevel initialization). One walk counts them, so the
// handles and their LHSs take one allocation each.
func (t *Tree) GetLevel(depth int) []Node {
	k := t.countLevel(0, 0, depth)
	out := make([]Node, 0, k)
	words := make([]uint64, k*t.w)
	t.collectLevel(0, bitset.New(t.numAttrs), 0, depth, &out, words)
	return out
}

func (t *Tree) countLevel(id int32, d, depth int) int {
	if d == depth {
		return 1
	}
	k, row := 0, t.row(id)
	for j, m := range t.words(id, maskSet) {
		for ; m != 0; m &= m - 1 {
			k += t.countLevel(row[j<<6|bits.TrailingZeros64(m)], d+1, depth)
		}
	}
	return k
}

// collectLevel appends the level's nodes below id to out, carving their
// LHSs from words in order.
func (t *Tree) collectLevel(id int32, path bitset.Set, d, depth int, out *[]Node, words []uint64) {
	if d == depth {
		lhs := path.CloneInto(words[len(*out)*t.w:])
		*out = append(*out, Node{t: t, id: id, Lhs: lhs})
		return
	}
	row := t.row(id)
	for j, m := range t.words(id, maskSet) {
		for ; m != 0; m &= m - 1 {
			a := j<<6 | bits.TrailingZeros64(m)
			path.Set(a)
			t.collectLevel(row[a], path, d+1, depth, out, words)
			path.Clear(a)
		}
	}
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
		t.prune(0, 0)
		if invariant.Enabled {
			t.AssertConsistent("SetMaxLhs")
		}
	}
}

func (t *Tree) prune(id int32, depth int) {
	row := t.row(id)
	for j, m := range t.words(id, maskSet) {
		for ; m != 0; m &= m - 1 {
			a := j<<6 | bits.TrailingZeros64(m)
			if depth+1 > t.maxLhs {
				t.unlink(id, a)
				continue
			}
			c := row[a]
			t.prune(c, depth+1)
			if isZero(t.words(c, attrsSet)) && t.isLeaf(c) {
				t.unlink(id, a)
			}
		}
	}
	t.recomputeRhsAttrs(id)
}

// Depth returns the depth of the deepest node, i.e. the largest LHS
// cardinality any stored path reaches.
func (t *Tree) Depth() int {
	return t.depth(0)
}

func (t *Tree) depth(id int32) int {
	d := 0
	row := t.row(id)
	for j, m := range t.words(id, maskSet) {
		for ; m != 0; m &= m - 1 {
			d = max(d, t.depth(row[j<<6|bits.TrailingZeros64(m)])+1)
		}
	}
	return d
}

// CountFDs returns the number of FDs in the tree without materializing
// them: free slots and unused ones are zero, so it counts the rhsFds block
// of every page.
func (t *Tree) CountFDs() int {
	total := 0
	for _, page := range t.bits {
		for _, w := range page[fdsSet*pageNodes*t.w : (fdsSet+1)*pageNodes*t.w] {
			total += bits.OnesCount64(w)
		}
	}
	return total
}

// FDs returns every FD stored in the tree as a canonical fd.Set, without
// comparing fd.FD values. The canonical order lists FDs by RHS, then LHS
// size, then LHS Key() string, so it is the order of the buckets of equal
// (RHS, |LHS|), each sorted on its LHSs' keys; and a key compares as its
// LHS words, byte-reversed, compare as unsigned integers, word by word
// (bitset.CompareKeys).
//
// One walk lists the nodes that carry FDs with their depth and their
// byte-reversed path, and one counting pass over them sizes the buckets.
// Each FD's key is then written to its bucket's next place in one word
// arena, each bucket is sorted, and reversing the bytes back in place
// turns the keys into the LHSs, carved from the arena in output order.
func (t *Tree) FDs() *fd.Set {
	n, w := t.numAttrs, t.w
	ls := listing{ // sized for every live node, so the walk never regrows them
		ids:    make([]int32, 0, t.nodeCount),
		depths: make([]int, 0, t.nodeCount),
		keys:   make([]uint64, 0, t.nodeCount*w),
	}
	t.listMarked(0, bitset.New(n), 0, &ls)
	depths := ls.maxDepth + 1 // buckets per RHS
	start := make([]int, n*depths+1)
	for i, id := range ls.ids {
		fds := t.set(id, fdsSet)
		for r := fds.NextSet(0); r >= 0; r = fds.NextSet(r + 1) {
			start[r*depths+ls.depths[i]+1]++
		}
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	total := start[len(start)-1]
	keys := make([]uint64, total*w)
	next := slices.Clone(start)
	for i, id := range ls.ids {
		key := ls.keys[i*w : (i+1)*w]
		fds := t.set(id, fdsSet)
		for r := fds.NextSet(0); r >= 0; r = fds.NextSet(r + 1) {
			b := r*depths + ls.depths[i]
			copy(keys[next[b]*w:], key)
			next[b]++
		}
	}
	out := make([]fd.FD, total)
	ks := newKeySorter(start, w)
	for b := 0; b+1 < len(start); b++ {
		lo, hi := start[b], start[b+1]
		ks.sort(keys[lo*w:hi*w], w)
		for i := lo; i < hi; i++ {
			lhs := keys[i*w : (i+1)*w]
			for j, k := range lhs {
				lhs[j] = bits.ReverseBytes64(k)
			}
			out[i] = fd.FD{Lhs: bitset.View(n, lhs), Rhs: b / depths}
		}
	}
	return fd.NewCanonicalSet(n, out)
}

// listing is the walk FDs sorts from: the nodes that carry FDs, in walk
// order, with their depths, and their paths byte-reversed into w key words
// each.
type listing struct {
	ids      []int32
	depths   []int
	keys     []uint64
	maxDepth int
}

func (t *Tree) listMarked(id int32, path bitset.Set, d int, ls *listing) {
	if !isZero(t.words(id, fdsSet)) {
		ls.ids = append(ls.ids, id)
		ls.depths = append(ls.depths, d)
		for j := 0; j < t.w; j++ {
			ls.keys = append(ls.keys, bits.ReverseBytes64(path.Word(j)))
		}
		ls.maxDepth = max(ls.maxDepth, d)
	}
	row := t.row(id)
	for j, m := range t.words(id, maskSet) {
		for ; m != 0; m &= m - 1 {
			a := j<<6 | bits.TrailingZeros64(m)
			path.Set(a)
			t.listMarked(row[a], path, d+1, ls)
			path.Clear(a)
		}
	}
}

// keySorter sorts keys of w words each, back to back, as unsigned integers
// compared word by word. Keys of one word sort in place. Longer keys sort
// as references that hold their first word, so only ties read the rest,
// and are then copied into place; the references and the copy are scratch
// it reuses across buckets.
type keySorter struct {
	refs []keyRef
	tmp  []uint64
}

// keyRef is a key's first word and its index.
type keyRef struct {
	first uint64
	i     int
}

// newKeySorter returns a sorter whose scratch fits the largest of the
// buckets that start delimits.
func newKeySorter(start []int, w int) *keySorter {
	if w == 1 {
		return &keySorter{}
	}
	most := 0
	for b := 1; b < len(start); b++ {
		most = max(most, start[b]-start[b-1])
	}
	return &keySorter{refs: make([]keyRef, 0, most), tmp: make([]uint64, 0, most*w)}
}

func (ks *keySorter) sort(keys []uint64, w int) {
	if w == 1 {
		slices.Sort(keys)
		return
	}
	ks.refs = ks.refs[:0]
	for i := 0; i < len(keys); i += w {
		ks.refs = append(ks.refs, keyRef{first: keys[i], i: i})
	}
	slices.SortFunc(ks.refs, func(a, b keyRef) int {
		if a.first != b.first {
			return cmp.Compare(a.first, b.first)
		}
		return slices.Compare(keys[a.i+1:a.i+w], keys[b.i+1:b.i+w])
	})
	ks.tmp = append(ks.tmp[:0], keys...)
	for j, r := range ks.refs {
		copy(keys[j*w:(j+1)*w], ks.tmp[r.i:r.i+w])
	}
}
