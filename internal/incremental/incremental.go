// Package incremental maintains a minimal FD cover across dataset snapshots
// without re-running full discovery, in the spirit of EAIFD (PAPERS.md,
// arXiv 2601.16025): deletes re-generalize the cover around the removed
// records, and inserts specialize it with the delta's negative cover through
// HyFD's induction (§7, Alg. 3), the algorithm discovery runs on sampled
// record pairs.
//
// Maintenance seeds an FDTree with the base cover, runs the delete phase,
// then the insert phase, and extracts the tree.
//
// # Deletes: re-generalization
//
// Let T_r be the set of attributes in which record r's PLI-compressed value
// is not a singleton. Two records can agree on attribute a only if both are
// non-singleton in a, so every violating pair of an FD X→A agrees — is
// non-singleton — on all of X. Deletes can only make X'→A newly valid if
// every parent-violating pair of X'→A lost an endpoint, so some deleted
// record r had X' ⊆ T_r (T_r computed on the parent's compressed records,
// which Apply preserves in Provenance.DeletedRecords). The maximal such
// candidate per (r, A) is T_r \ {A}; validity is upward-closed in the LHS, so
// if that top candidate is invalid nothing below it flipped either. Where it
// is valid, maintenance descends with full refinement checks to its minimal
// valid generalizations and adds them to the tree.
//
// # Inserts: induction
//
// The insert phase hands the tree to an inductor (inductor.Over) and
// induces the delta's negative cover into it: the distinct agree sets of
// every row pair that involves an inserted record. The cover stays exact:
//
//   - Before induction, every FD that is valid on the new snapshot has a
//     generalization in the tree: the base cover is exact for the parent,
//     and the delete phase added what the deletes made valid.
//   - Every FD in the tree holds on the parent's surviving rows.
//   - So every violation the inserts add comes from a pair that involves an
//     inserted record, and that pair's agree set is in the delta's negative
//     cover.
//   - Induction removes exactly the FDs those agree sets violate and keeps
//     the rest minimal. This is Fdep's invariant.
//
// Only pairs that share a PLI cluster are enumerated, so a pair that agrees
// on no attribute, and breaks every ∅→A, is found by counting: when an
// inserted record shares a cluster with fewer than all other records, the
// cover also carries the empty agree set.
//
// # Minimality
//
// An antichain is a set of FDs in which no LHS is a proper subset of another
// LHS with the same RHS. Without delete-phase generalizations the tree
// starts as the base cover's antichain and induction keeps it one, as
// core.run argues for its all-pairs exit, so the extracted tree is already
// the minimal cover. A generalization can leave base FDs above it in the
// tree, so only then (Stats.Generalized > 0) does a final fd.Set.Minimize
// run. The minimal cover is unique, so the maintained result is
// byte-identical to a cold re-run.
package incremental

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"time"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/inductor"
	"hyfd/internal/pli"
	"hyfd/internal/trace"
	"hyfd/internal/validator"
)

// Config configures a maintenance run.
type Config struct {
	// Threads is ignored: maintenance runs sequentially. The field is kept
	// for callers that still set it and will be removed.
	Threads int
	// Observer receives trace events (IncrementalCandidates,
	// IncrementalDone); nil disables tracing.
	Observer trace.Observer
}

// Stats reports what a maintenance run did.
type Stats struct {
	// BaseFDs is the size of the maintained base cover.
	BaseFDs int
	// Breakable counts base FDs the inserted records broke.
	Breakable int
	// DeleteSeeds counts distinct touched-attribute sets of deleted records.
	DeleteSeeds int
	// Checks counts the delete phase's direct-refinement validations; the
	// insert phase performs none.
	Checks int
	// Specialized counts FDs induction added while repairing broken FDs,
	// net of those it removed again.
	Specialized int
	// Generalized counts FDs added by delete-driven re-generalization.
	Generalized int
	// FDs is the size of the maintained cover.
	FDs int
	// Duration is the wall-clock time of the maintenance run.
	Duration time.Duration
}

// ErrNotDelta reports that the snapshot has no provenance — it was produced
// by Prepare, not Apply, so there is no delta to maintain against.
var ErrNotDelta = errors.New("incremental: snapshot has no delta provenance")

// Maintain updates the minimal FD cover base — exact for the snapshot's
// parent — to the minimal FD cover of the delta snapshot snap. The returned
// set is freshly built; base is not mutated.
func Maintain(ctx context.Context, snap *dataset.Dataset, base *fd.Set, cfg Config) (*fd.Set, Stats, error) {
	if ctx == nil {
		//hyfdvet:allow ctxflow — documented nil-ctx defaulting at the public maintenance boundary
		ctx = context.Background()
	}
	var stats Stats
	prov := snap.Provenance()
	if prov == nil {
		return nil, stats, ErrNotDelta
	}
	if base == nil {
		return nil, stats, errors.New("incremental: nil base cover")
	}
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	start := time.Now()

	ix := snap.Index()
	m := ix.NumCols
	w := &worker{
		ck:    validator.NewChecker(ix),
		tree:  fdtree.New(m),
		memo:  make(map[string]bool),
		stats: &stats,
	}
	baseFDs := base.All()
	for _, f := range baseFDs {
		w.tree.Add(f.Lhs, f.Rhs)
	}
	stats.BaseFDs = base.Size()

	// Phase A — deletes: re-generalize where removed rows may have made the
	// cover non-minimal (or made wholly absent FDs valid).
	if len(prov.DeletedRecords) > 0 {
		seeds := touchedSets(prov.DeletedRecords, m)
		stats.DeleteSeeds = len(seeds)
		for _, t := range seeds {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			for rhs := 0; rhs < m; rhs++ {
				top := t
				if t.Test(rhs) {
					top = t.Without(rhs)
				}
				if w.valid(top, rhs) {
					w.generalize(top, rhs)
				}
			}
		}
	}

	// Phase B — inserts: induce the delta's negative cover into the tree.
	// Update sorts each call's agree sets by the total order below, so
	// sorting the whole cover first and feeding it in chunks processes it
	// as one call would, with a cancellation check between chunks.
	if prov.Inserts > 0 {
		nonFds := deltaViolations(ix, prov.InsertedFrom)
		sort.Slice(nonFds, func(i, j int) bool {
			return bitset.CompareCardinalityDesc(nonFds[i], nonFds[j]) < 0
		})
		in := inductor.Over(w.tree)
		before := w.tree.CountFDs()
		for len(nonFds) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			n := len(nonFds)
			if n > inductChunk {
				n = inductChunk
			}
			in.Update(nonFds[:n])
			nonFds = nonFds[n:]
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		for _, f := range baseFDs {
			if !w.tree.ContainsFd(f.Lhs, f.Rhs) {
				stats.Breakable++
			}
		}
		stats.Specialized = w.tree.CountFDs() - before + stats.Breakable
	}
	trace.Emit(cfg.Observer, trace.IncrementalCandidates{
		BaseFDs:     stats.BaseFDs,
		Breakable:   stats.Breakable,
		DeleteSeeds: stats.DeleteSeeds,
	})

	result := w.tree.FDs()
	if stats.Generalized > 0 {
		result = result.Minimize()
	}
	stats.FDs = result.Size()
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	stats.Duration = time.Since(start)
	trace.Emit(cfg.Observer, trace.IncrementalDone{
		FDs:         stats.FDs,
		Checks:      stats.Checks,
		Specialized: stats.Specialized,
		Generalized: stats.Generalized,
		Duration:    stats.Duration,
	})
	return result, stats, nil
}

// inductChunk is the number of agree sets the insert phase induces between
// two cancellation checks.
const inductChunk = 64

// worker bundles the delete phase's state: the cover under repair, a
// checker, and a validity memo so no candidate is ever validated twice.
type worker struct {
	ck    *validator.Checker
	tree  *fdtree.Tree
	memo  map[string]bool
	stats *Stats
	// descended marks (lhs, rhs) pairs generalize already explored.
	descended map[string]bool
}

func fdKey(lhs bitset.Set, rhs int) string {
	return lhs.Key() + "\x00" + strconv.Itoa(rhs)
}

// valid memoizes full direct-refinement checks — the delete phase's
// validity oracle, where candidates may owe their validity to any row pair.
func (w *worker) valid(lhs bitset.Set, rhs int) bool {
	k := fdKey(lhs, rhs)
	if v, ok := w.memo[k]; ok {
		return v
	}
	v := w.ck.Refines(lhs, rhs)
	w.memo[k] = v
	w.stats.Checks++
	return v
}

// deltaViolations computes the delta's negative cover: the distinct agree
// sets of every row pair that involves an inserted record (id >= from). Two
// records agree on attribute a iff both sit in the same non-singleton PLI
// cluster, so the pairs sharing a cluster are enumerated, and the empty
// agree set is added when some inserted record shares no cluster with some
// other record.
func deltaViolations(ix *pli.Index, from int) []bitset.Set {
	seen := make(map[string]bool)
	// visited stamps partner rows per inserted record so a pair sharing
	// several clusters is counted and materialized once.
	visited := make([]int, ix.NumRows)
	var out []bitset.Set
	disjoint := false
	for r := from; r < ix.NumRows; r++ {
		rec := ix.Row(r)
		stamp := r + 1
		visited[r] = stamp
		partners := 0
		for a := 0; a < ix.NumCols; a++ {
			c := rec[a]
			if c == pli.Singleton {
				continue
			}
			for _, s32 := range ix.Plis[a].Clusters[c] {
				s := int(s32)
				if visited[s] == stamp {
					continue
				}
				visited[s] = stamp
				partners++
				// An inserted partner with a smaller id was paired with r
				// when it was the outer record.
				if s >= from && s < r {
					continue
				}
				ag := agreeSet(rec, ix.Row(s))
				if k := ag.Key(); !seen[k] {
					seen[k] = true
					out = append(out, ag)
				}
			}
		}
		disjoint = disjoint || partners < ix.NumRows-1
	}
	if disjoint {
		out = append(out, bitset.New(ix.NumCols))
	}
	return out
}

// agreeSet returns the attributes on which two compressed records agree.
func agreeSet(rec, other []int32) bitset.Set {
	ag := bitset.New(len(rec))
	for b, c := range rec {
		if c != pli.Singleton && c == other[b] {
			ag.Set(b)
		}
	}
	return ag
}

// generalize descends from the valid candidate lhs→rhs to its minimal valid
// generalizations and adds them to the cover. Validity is upward-closed, so
// recursing through every valid direct generalization reaches exactly the
// minimal valid subsets.
func (w *worker) generalize(lhs bitset.Set, rhs int) {
	if w.descended == nil {
		w.descended = make(map[string]bool)
	}
	k := fdKey(lhs, rhs)
	if w.descended[k] {
		return
	}
	w.descended[k] = true
	anyValid := false
	lhs.ForEach(func(b int) bool {
		g := lhs.Without(b)
		if w.valid(g, rhs) {
			anyValid = true
			w.generalize(g, rhs)
		}
		return true
	})
	if !anyValid && !w.tree.FindFdOrGeneral(lhs, rhs) {
		if w.tree.Add(lhs, rhs) {
			w.stats.Generalized++
		}
	}
}

// touchedSets returns the distinct touched-attribute sets of the given
// compressed records, in first-occurrence order.
func touchedSets(records [][]int32, m int) []bitset.Set {
	var out []bitset.Set
	seen := make(map[string]bool, len(records))
	for _, rec := range records {
		t := bitset.New(m)
		for a, cid := range rec {
			if cid != pli.Singleton {
				t.Set(a)
			}
		}
		if k := t.Key(); !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}
