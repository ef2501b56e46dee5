// Package validator implements HyFD's Phase 2 (§8, Alg. 4): a row-efficient,
// level-wise traversal of the candidate FDTree that validates each node's FD
// candidates against the data and specializes invalid candidates into new
// minimal ones. A level is visited in the rank order of its LHSs, so each
// worker refines the partition of an LHS prefix that several nodes share
// once, from the pivot PLI through the compressed records, and holds only
// the partitions of the current LHS's prefixes, never a partition cache. A
// node whose partition shows a violation is checked again directly against
// the single-attribute PLIs (Fig. 5), which yields its exact valid set and
// the record pairs that witness the violations. When a level produces too
// many invalid candidates the Validator hands control back to the Sampler
// along with those pairs.
package validator

import (
	"context"
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/invariant"
	"hyfd/internal/pli"
	"hyfd/internal/trace"
)

// DefaultInvalidThreshold is the paper's Phase 2 efficiency cutoff: switch
// back to sampling when more than 1 % of a level's candidates are invalid.
const DefaultInvalidThreshold = 0.01

// Result reports the outcome of one Validator run.
type Result struct {
	// Done is true when every candidate was validated; the FDTree then
	// holds exactly the minimal FDs of the dataset.
	Done bool
	// Suggestions are record pairs that violated candidates, handed to the
	// Sampler when Done is false.
	Suggestions []pli.Pair
	// ValidFds / InvalidFds count candidate validations of this run.
	ValidFds, InvalidFds int
	// Stopped is true when a WithLevelFunc callback ended the run early
	// (ranked top-k cut). The tree then still holds unvalidated candidates
	// and Done is false.
	Stopped bool
}

// Validator validates FD candidates level-wise against the full dataset.
// Its level counter persists across runs, so after a phase switch it
// resumes where it stopped; the level's nodes are re-collected from the
// tree each time because the Inductor may have restructured the candidate
// frontier in between.
type Validator struct {
	ix        *pli.Index
	tree      *fdtree.Tree
	threshold float64
	threads   int
	observer  trace.Observer
	levelFn   func(level int, valid []fd.FD) bool
	// rank is every attribute's position in ix.Order.
	rank []int
	// rankKeys and order are rankOrder's scratch, reused across levels.
	rankKeys []int32
	order    []int
	// checkers holds one refiner per worker, built on first use and reused
	// across levels and runs.
	checkers []refiner
	// direct is a test seam: it gives every worker the direct check alone,
	// the reference the prefix stack must agree with.
	direct bool

	levelNumber int

	// Validations counts validated FDTree nodes over the Validator's life.
	Validations int64
}

// Option customizes a Validator.
type Option func(*Validator)

// WithInvalidThreshold sets the fraction of invalid candidates per level
// above which the Validator switches back to sampling.
func WithInvalidThreshold(t float64) Option {
	return func(v *Validator) { v.threshold = t }
}

// WithThreads sets the number of worker goroutines used for node
// validation; 1 means sequential, any value <= 0 picks
// runtime.GOMAXPROCS(0) — the engine-wide thread-count contract.
func WithThreads(n int) Option {
	return func(v *Validator) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		v.threads = n
	}
}

// WithObserver subscribes an observer to per-level trace.ValidationLevel
// events. Events are emitted from the coordinating goroutine only, after
// each level completes, so the observer never sees concurrent calls from
// the validator.
func WithObserver(o trace.Observer) Option {
	return func(v *Validator) { v.observer = o }
}

// WithLevelFunc registers a per-level callback for ranked discovery. After
// each level completes — specializations applied, trace event emitted — fn
// receives the finished level number and the FDs it validated, in the
// level's deterministic node order (each LHS is an independent clone).
// Returning false stops the run immediately with Result.Stopped set. The
// callback runs on the coordinating goroutine, never concurrently.
func WithLevelFunc(fn func(level int, valid []fd.FD) bool) Option {
	return func(v *Validator) { v.levelFn = fn }
}

// New returns a Validator over the preprocessed index and candidate tree.
func New(ix *pli.Index, tree *fdtree.Tree, opts ...Option) *Validator {
	v := &Validator{ix: ix, tree: tree, threshold: DefaultInvalidThreshold, threads: 1, rank: ix.Rank()}
	for _, o := range opts {
		o(v)
	}
	return v
}

// Level returns the next level Run validates; every shallower level is
// done.
func (v *Validator) Level() int { return v.levelNumber }

// invalidFd pairs an invalid candidate with its RHS.
type invalidFd struct {
	lhs bitset.Set
	rhs int
}

// nodeResult carries one node's validation outcome between workers and the
// sequential merge.
type nodeResult struct {
	valid       bitset.Set
	invalid     []invalidFd
	suggestions []pli.Pair
	numRhss     int
}

// Run resumes (or starts) the level-wise validation. With exhaustive=false
// it returns early — Done=false plus suggestions — once a level exceeds the
// invalid-candidate threshold; with exhaustive=true it always runs to
// completion (used when the Sampler has nothing new to offer).
//
// The context is checked before every level and between nodes inside a
// level (including by the parallel workers); a canceled run returns
// ctx.Err() promptly and leaves the candidate tree consistent up to the
// last fully validated level.
func (v *Validator) Run(ctx context.Context, exhaustive bool) (*Result, error) {
	res := &Result{}
	for v.levelNumber <= v.tree.MaxLhs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		level := v.tree.GetLevel(v.levelNumber)
		if len(level) == 0 {
			break
		}
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		levelStart := time.Now()
		validationsBefore := v.Validations
		suggestionsBefore := len(res.Suggestions)
		numValid, numInvalid := 0, 0
		var invalids []invalidFd
		var levelValid []fd.FD
		results, refinements, fallbacks, err := v.validateLevel(ctx, level)
		if err != nil {
			return nil, err
		}
		for i, nd := range level {
			r := results[i]
			if r.numRhss == 0 {
				continue
			}
			v.Validations++
			nd.SetFds(r.valid)
			numValid += r.valid.Cardinality()
			numInvalid += len(r.invalid)
			invalids = append(invalids, r.invalid...)
			res.Suggestions = append(res.Suggestions, r.suggestions...)
			if v.levelFn != nil {
				r.valid.ForEach(func(rhs int) bool {
					levelValid = append(levelValid, fd.FD{Lhs: nd.Lhs.Clone(), Rhs: rhs})
					return true
				})
			}
		}
		res.ValidFds += numValid
		res.InvalidFds += numInvalid

		// Specialize invalid candidates into the next level (Alg. 4 lines
		// 21-33); the next GetLevel picks the new nodes up.
		for _, inv := range invalids {
			v.specialize(inv)
		}
		if invariant.Enabled {
			v.assertLevelMinimal(level)
			v.tree.AssertConsistent("validation level")
		}
		trace.Emit(v.observer, trace.ValidationLevel{
			Level:          v.levelNumber,
			Candidates:     numValid + numInvalid,
			Valid:          numValid,
			Invalid:        numInvalid,
			Suggestions:    len(res.Suggestions) - suggestionsBefore,
			Validations:    int(v.Validations - validationsBefore),
			Refinements:    refinements,
			Fallbacks:      fallbacks,
			FootprintBytes: int64(v.tree.ApproxBytes()),
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			Duration: time.Since(levelStart),
		})
		v.levelNumber++

		if v.levelFn != nil && !v.levelFn(v.levelNumber-1, levelValid) {
			res.Stopped = true
			return res, nil
		}

		// Phase-switch check (Alg. 4 line 36): the level produced too many
		// invalid candidates, so the approximation is still poor.
		if !exhaustive && float64(numInvalid) > v.threshold*float64(numValid) &&
			len(res.Suggestions) > 0 {
			return res, nil
		}
	}
	res.Done = true
	res.Suggestions = nil
	return res, nil
}

// specialize generates all minimal, non-trivial extensions of an invalid FD
// (Alg. 4 lines 21-33).
func (v *Validator) specialize(inv invalidFd) {
	for attr := 0; attr < v.ix.NumCols; attr++ {
		if inv.lhs.Test(attr) || inv.rhs == attr {
			continue // triviality
		}
		// Pruning rule 1: lhs → attr already valid, so adding attr to the
		// LHS adds no determination power; the extension stays invalid.
		if v.tree.FindFdOrGeneral(inv.lhs, attr) {
			continue
		}
		// Pruning rule 2: attr → rhs (or ∅ → rhs) already valid, so the
		// extension is non-minimal.
		if v.tree.FindFdOrGeneral(bitset.FromIndices(v.ix.NumCols, attr), inv.rhs) {
			continue
		}
		newLhs := inv.lhs.With(attr)
		if v.tree.FindFdOrGeneral(newLhs, inv.rhs) {
			continue // a validated generalization exists: non-minimal
		}
		v.tree.Add(newLhs, inv.rhs)
	}
}

// refiner validates one node's candidates against the data.
type refiner interface {
	refines(lhs bitset.Set, rhss bitset.Set) (bitset.Set, []pli.Pair)
}

// refiners returns n check implementations, one per worker goroutine,
// building them on first use and reusing them across levels and runs.
func (v *Validator) refiners(n int) []refiner {
	for len(v.checkers) < n {
		if v.direct {
			v.checkers = append(v.checkers, newChecker(v.ix))
		} else {
			v.checkers = append(v.checkers, newWorker(v.ix, v.rank))
		}
	}
	return v.checkers[:n]
}

// validateLevel validates every node of the level that carries candidates
// and writes each result at the node's index. The nodes, in rank order
// (rankOrder), are cut into one contiguous share per worker, and each
// worker visits its share in order, so nodes that share an LHS prefix share
// its partitions. A node's result depends only on the node and the data,
// never on the schedule. The context is re-checked between nodes; on
// cancellation the partial results are discarded. It also returns the
// level's partition products and the nodes it re-checked directly.
func (v *Validator) validateLevel(ctx context.Context, level []fdtree.Node) ([]nodeResult, int, int, error) {
	results := make([]nodeResult, len(level))
	order := v.rankOrder(level)
	shares := min(v.threads, len(order))
	checkers := v.refiners(shares)
	if shares == 1 {
		validateShare(ctx, checkers[0], level, order, results)
	} else {
		var wg sync.WaitGroup
		for w, ck := range checkers {
			wg.Add(1)
			go func(ck refiner, share []int) {
				defer wg.Done()
				validateShare(ctx, ck, level, share, results)
			}(ck, order[w*len(order)/shares:(w+1)*len(order)/shares])
		}
		wg.Wait()
	}
	refinements, fallbacks := 0, 0
	for _, ck := range checkers {
		if w, ok := ck.(*worker); ok {
			refinements, fallbacks = refinements+w.refinements, fallbacks+w.fallbacks
			w.refinements, w.fallbacks = 0, 0
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	return results, refinements, fallbacks, nil
}

// validateShare validates the nodes level[i] for i in share, in order,
// until the context ends.
func validateShare(ctx context.Context, ck refiner, level []fdtree.Node, share []int, results []nodeResult) {
	for _, i := range share {
		if ctx.Err() != nil {
			return
		}
		results[i] = validateNode(ck, level[i])
	}
}

// rankOrder returns the indices of the level's nodes that carry candidates,
// sorted by their LHS attributes listed in rank order (Index.Order: most
// clusters first, ties by attribute index). A node's first attribute is
// then its pivot, and nodes that share a rank-ordered prefix are adjacent.
// The keys and the order live in the Validator's scratch, so the result
// is valid until the next call.
func (v *Validator) rankOrder(level []fdtree.Node) []int {
	k := v.levelNumber
	keys, order := v.rankKeys[:0], v.order[:0]
	for i, nd := range level {
		keys = rankKey(keys, nd.Lhs, v.rank)
		if nd.HasFds() {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(keys[a*k:(a+1)*k], keys[b*k:(b+1)*k])
	})
	v.rankKeys, v.order = keys, order
	return order
}

// rankKey appends the ranks of lhs's attributes to dst in ascending order:
// the LHS listed in rank order.
func rankKey(dst []int32, lhs bitset.Set, rank []int) []int32 {
	n := len(dst)
	for a := lhs.NextSet(0); a >= 0; a = lhs.NextSet(a + 1) {
		dst = append(dst, int32(rank[a]))
	}
	slices.Sort(dst[n:])
	return dst
}

// validateNode validates all FD candidates of one node simultaneously.
func validateNode(ck refiner, nd fdtree.Node) nodeResult {
	rhss := nd.RhsFds()
	numRhss := rhss.Cardinality()
	if numRhss == 0 {
		return nodeResult{numRhss: 0}
	}
	valid, suggestions := ck.refines(nd.Lhs, rhss)
	r := nodeResult{valid: valid, suggestions: suggestions, numRhss: numRhss}
	invalid := rhss.AndNot(valid)
	invalid.ForEach(func(rhs int) bool {
		r.invalid = append(r.invalid, invalidFd{lhs: nd.Lhs, rhs: rhs})
		return true
	})
	return r
}

// worker validates nodes against the partitions of their LHS prefixes. It
// holds the partitions of the rank-ordered prefixes of the last LHS it
// checked: depth 1 is the pivot PLI's clusters, read in place, and depth
// d ≥ 2 is depth d−1 refined by the d-th attribute, written into buffers
// the worker reuses across nodes, levels and runs, so its scratch is at
// most (depth − 1) × ||π(pivot)|| records. A node whose partition shows no
// violation is valid for all its candidates and has no witnesses; any
// other node goes to the direct check, which finds its exact valid set and
// witness pairs. One worker per goroutine.
type worker struct {
	ix   *pli.Index
	rank []int
	ck   *checker
	rf   *pli.Refiner
	// held is the rank-ordered LHS, as ranks, whose prefix partitions the
	// worker holds: parts[d-2] is the partition of its first d attributes.
	held, next []int32
	parts      []prefix
	rhsAttrs   []int
	// refinements and fallbacks count the partition products and the
	// direct checks since the validator last read them.
	refinements, fallbacks int
}

// prefix is one refined partition of a worker's stack: its clusters slice
// flat at the end offsets in ends.
type prefix struct {
	flat, ends []int32
	clusters   [][]int32
}

func newWorker(ix *pli.Index, rank []int) *worker {
	return &worker{ix: ix, rank: rank, ck: newChecker(ix), rf: pli.NewRefiner(ix)}
}

func (w *worker) refines(lhs bitset.Set, rhss bitset.Set) (bitset.Set, []pli.Pair) {
	if lhs.IsEmpty() {
		return w.ck.refines(lhs, rhss)
	}
	w.rhsAttrs = rhss.AppendIndices(w.rhsAttrs[:0])
	if !holds(w.ix, w.partition(lhs), w.rhsAttrs) {
		w.fallbacks++
		return w.ck.refines(lhs, rhss)
	}
	if invariant.Enabled {
		valid, suggestions := w.ck.refines(lhs, rhss)
		invariant.Assert(valid.Equal(rhss) && len(suggestions) == 0,
			"validator: the prefix partitions confirm %v -> %v, the direct check only %v",
			lhs.Indices(), rhss.Indices(), valid.Indices())
	}
	return rhss.Clone(), nil
}

// partition returns the clusters of π(lhs): it pops the stack to the
// prefix that lhs shares with the held LHS and refines down from there.
func (w *worker) partition(lhs bitset.Set) [][]int32 {
	w.next = rankKey(w.next[:0], lhs, w.rank)
	shared := 0
	for shared < min(len(w.held), len(w.next)) && w.held[shared] == w.next[shared] {
		shared++
	}
	w.held, w.next = w.next, w.held
	order := w.ix.Order
	clusters := w.ix.Plis[order[w.held[0]]].Clusters
	for d := 2; d <= len(w.held); d++ {
		if len(w.parts) < d-1 {
			w.parts = append(w.parts, prefix{})
		}
		p := &w.parts[d-2]
		if d > shared {
			p.flat, p.ends = w.rf.RefineInto(p.flat[:0], p.ends[:0], clusters, order[w.held[d-1]])
			p.clusters = p.clusters[:0]
			start := int32(0)
			for _, end := range p.ends {
				p.clusters = append(p.clusters, p.flat[start:end:end])
				start = end
			}
			w.refinements++
		}
		clusters = p.clusters
	}
	return clusters
}

// holds reports whether every cluster of a partition lies within one
// cluster of every attribute in rhs: each record carries its cluster's
// first record's cluster id, and that id is not Singleton, a unique value
// that agrees with no other record.
func holds(ix *pli.Index, clusters [][]int32, rhs []int) bool {
	for _, cluster := range clusters {
		first := ix.Row(int(cluster[0]))
		for _, a := range rhs {
			if first[a] == pli.Singleton {
				return false
			}
		}
		for _, r := range cluster[1:] {
			row := ix.Row(int(r))
			for _, a := range rhs {
				if row[a] != first[a] {
					return false
				}
			}
		}
	}
	return true
}

// checker performs direct refinement checks (Fig. 5): level 0, and the
// nodes whose LHS partition shows a violation, for their exact valid set
// and witness pairs. One checker per goroutine; it reuses its buffers
// across clusters and nodes, so a warm refines allocates only its result.
type checker struct {
	ix   *pli.Index
	rank []int
	// key0 and key1 are the secret words of the grouping hash, drawn per
	// checker so crafted input cannot force long probe chains. Nothing
	// observable depends on them: groups keep first-appearance order.
	key0, key1 uint64
	// Attribute scratch of the node under check: its LHS, the LHS without
	// the pivot, and the RHS candidates.
	lhsAttrs, rest, rhsAttrs []int
	// Per-cluster grouping scratch: recs holds the first record of each
	// distinct LHS group in first-appearance order, rhsArena the group's
	// RHS cluster ids (flat, one row of width ids per group), and slots an
	// open-addressed table of group index+1 (0 = empty) keyed by the hash
	// of the non-pivot cluster ids. A hit is confirmed against the group's
	// first record, so no key is stored.
	recs     []int32
	rhsArena []int32
	slots    []int32
}

func newChecker(ix *pli.Index) *checker {
	seed := maphash.MakeSeed()
	return &checker{
		ix:   ix,
		rank: ix.Rank(),
		key0: maphash.String(seed, "key0"),
		key1: maphash.String(seed, "key1") | 1,
	}
}

// mix folds one cluster id into a running group hash with wyhash's
// multiply-and-fold step under the secret key.
func mix(h uint64, cid int32, key uint64) uint64 {
	hi, lo := bits.Mul64(h^uint64(uint32(cid)), key)
	return hi ^ lo
}

// resetSlots empties a power-of-two table with at least twice as many
// slots as a cluster of size n has records, keeping the load at most one
// half, and returns its index mask. Without non-pivot attributes every
// record falls into one group, so one slot suffices.
func (ck *checker) resetSlots(n int) uint64 {
	size := 1
	if len(ck.rest) > 0 {
		for size < 2*n {
			size <<= 1
		}
	}
	if cap(ck.slots) < size {
		ck.slots = make([]int32, size)
	}
	ck.slots = ck.slots[:size]
	clear(ck.slots)
	return uint64(size - 1)
}

// refines reports which RHS attributes are functionally determined by lhs,
// checking all candidates of one FDTree node in a single pass over the
// pivot PLI. It also returns record pairs witnessing violations.
func (ck *checker) refines(lhs bitset.Set, rhss bitset.Set) (bitset.Set, []pli.Pair) {
	ix := ck.ix
	ck.lhsAttrs = lhs.AppendIndices(ck.lhsAttrs[:0])

	// Level 0: ∅ → A holds iff column A is constant.
	if len(ck.lhsAttrs) == 0 {
		valid := bitset.New(ix.NumCols)
		var suggestions []pli.Pair
		rhss.ForEach(func(rhs int) bool {
			p := ix.Plis[rhs]
			if p.IsConstant() {
				valid.Set(rhs)
			} else if pair, ok := constantViolation(ix, rhs); ok {
				suggestions = append(suggestions, pair)
			}
			return true
		})
		return valid, suggestions
	}

	// Pivot: the LHS attribute with the most clusters (lowest rank in the
	// descending-distinctness order), i.e. the smallest clusters to scan.
	pivot := ck.lhsAttrs[0]
	for _, a := range ck.lhsAttrs[1:] {
		if ck.rank[a] < ck.rank[pivot] {
			pivot = a
		}
	}
	ck.rest = ck.rest[:0]
	for _, a := range ck.lhsAttrs {
		if a != pivot {
			ck.rest = append(ck.rest, a)
		}
	}
	ck.rhsAttrs = rhss.AppendIndices(ck.rhsAttrs[:0])
	rest, rhsAttrs := ck.rest, ck.rhsAttrs

	valid := rhss.Clone()
	remaining := len(rhsAttrs)
	var suggestions []pli.Pair
	width := len(rhsAttrs)

	for _, cluster := range ix.Plis[pivot].Clusters {
		ck.recs, ck.rhsArena = ck.recs[:0], ck.rhsArena[:0]
		mask := ck.resetSlots(len(cluster))
	records:
		for _, rec := range cluster {
			row := ix.Row(int(rec))
			// Hash the non-pivot cluster ids; a singleton makes the record
			// unique in the LHS, so it joins no group.
			h := ck.key0
			for _, a := range rest {
				cid := row[a]
				if cid == pli.Singleton {
					continue records
				}
				h = mix(h, cid, ck.key1)
			}
			// Linear probing: stop at the record's group or an empty slot.
			slot := h & mask
			gi := -1
			for g := ck.slots[slot]; g != 0; g = ck.slots[slot] {
				if sameGroup(ix.Row(int(ck.recs[g-1])), row, rest) {
					gi = int(g - 1)
					break
				}
				slot = (slot + 1) & mask
			}
			if gi < 0 {
				ck.slots[slot] = int32(len(ck.recs)) + 1
				ck.recs = append(ck.recs, rec)
				for _, a := range rhsAttrs {
					ck.rhsArena = append(ck.rhsArena, row[a])
				}
				continue
			}
			// Compare the record's RHS cluster ids against its group's.
			groupRhss := ck.rhsArena[gi*width : (gi+1)*width]
			violated := false
			for i, a := range rhsAttrs {
				if !valid.Test(a) {
					continue
				}
				// A Singleton RHS id means a unique value, which never agrees.
				cid := row[a]
				if cid == pli.Singleton || cid != groupRhss[i] {
					valid.Clear(a)
					remaining--
					violated = true
				}
			}
			if violated {
				suggestions = append(suggestions, pli.Pair{A: ck.recs[gi], B: rec})
				if remaining == 0 {
					return valid, suggestions
				}
			}
		}
	}
	return valid, suggestions
}

// sameGroup reports whether two records agree on every attribute of rest.
func sameGroup(a, b []int32, rest []int) bool {
	for _, attr := range rest {
		if a[attr] != b[attr] {
			return false
		}
	}
	return true
}

// constantViolation extracts a witness pair for a non-constant column attr:
// two records with different values.
func constantViolation(ix *pli.Index, attr int) (pli.Pair, bool) {
	p := ix.Plis[attr]
	switch {
	case len(p.Clusters) >= 2:
		return pli.Pair{A: p.Clusters[0][0], B: p.Clusters[1][0]}, true
	case len(p.Clusters) == 1 && len(p.Clusters[0]) < p.NumRows:
		// One cluster plus at least one singleton: the first record outside
		// the cluster is the first whose id is Singleton.
		for r := 0; r < ix.NumRows; r++ {
			if ix.Row(r)[attr] == pli.Singleton {
				return pli.Pair{A: p.Clusters[0][0], B: int32(r)}, true
			}
		}
	case len(p.Clusters) == 0 && p.NumRows >= 2:
		return pli.Pair{A: 0, B: 1}, true
	}
	return pli.Pair{}, false
}
