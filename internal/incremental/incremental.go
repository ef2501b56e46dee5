// Package incremental maintains a minimal FD cover across dataset snapshots
// without re-running full discovery, in the spirit of EAIFD (PAPERS.md,
// arXiv 2601.16025): a delta can only change the validity of candidates its
// touched records participate in, so maintenance re-validates exactly those
// and repairs the cover locally.
//
// # Breakable-candidate derivation
//
// Let T_r be the set of attributes in which record r's PLI-compressed value
// is not a singleton. Two records can agree on attribute a only if both are
// non-singleton in a, so every violating pair of an FD X→A agrees — is
// non-singleton — on all of X:
//
//   - Inserts can only invalidate X→A if some inserted record r has X ⊆ T_r
//     (T_r computed on the new snapshot). Base FDs failing this filter stay
//     valid without a check. Moreover, every insert-phase candidate — a cover
//     FD, or a specialization grown from one — was valid on the parent's rows
//     (cover FDs because the base cover is exact, specializations because
//     validity is upward-closed in the LHS), so a violation must pair an
//     inserted record with a record agreeing on all of X. The insert phase
//     therefore materializes the delta's negative cover — the distinct agree
//     sets of every pair that involves an inserted record — once, and each
//     candidate check reduces to subset tests against those sets: per-batch
//     cost scales with the delta, not the data.
//   - Deletes can only make X'→A newly valid if every parent-violating pair
//     of X'→A lost an endpoint, so some deleted record r had X' ⊆ T_r (T_r
//     computed on the parent's compressed records, which Apply preserves in
//     Provenance.DeletedRecords). The maximal such candidate per (r, A) is
//     T_r \ {A}; validity is upward-closed in the LHS, so if that top
//     candidate is invalid nothing below it flipped either.
//
// # Cover repair
//
// Maintenance seeds an FDTree with the base cover, then: (1) for every
// deleted record's touched set, checks the top candidate per RHS and — where
// valid — descends to its minimal valid generalizations (re-generalization);
// (2) removes base FDs that an insert broke and specializes them upward,
// with the validator's minimality prunes, until validity is restored. A
// final minimization pass yields the canonical minimal cover, which is
// unique — so the maintained result is byte-identical to a cold re-run.
package incremental

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/pli"
	"hyfd/internal/trace"
	"hyfd/internal/validator"
)

// Config configures a maintenance run.
type Config struct {
	// Threads is the worker count for batched candidate re-validation;
	// 1 runs sequentially, any value <= 0 picks the snapshot's resolved
	// thread count. Every thread count yields bit-for-bit identical
	// results.
	Threads int
	// Observer receives trace events (IncrementalCandidates,
	// IncrementalDone); nil disables tracing.
	Observer trace.Observer
}

// Stats reports what a maintenance run did.
type Stats struct {
	// BaseFDs is the size of the maintained base cover.
	BaseFDs int
	// Breakable counts base FDs the inserted records could have broken.
	Breakable int
	// DeleteSeeds counts distinct touched-attribute sets of deleted records.
	DeleteSeeds int
	// Checks counts direct-refinement validations performed.
	Checks int
	// Specialized counts candidates added while repairing broken FDs.
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
	threads := cfg.Threads
	if threads <= 0 {
		threads = snap.Threads()
	}

	w := &worker{
		ix:    ix,
		ck:    validator.NewChecker(ix),
		tree:  fdtree.New(m),
		memo:  make(map[string]bool),
		stats: &stats,
	}
	for _, f := range base.All() {
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

	// Phase B — inserts: re-validate breakable cover FDs against the new
	// index, remove the broken ones, and specialize them back to validity.
	var breakable []fd.FD
	if prov.Inserts > 0 {
		w.vio = deltaViolations(ix, prov.InsertedFrom)
		touched := insertedTouchedSets(ix, prov.InsertedFrom, m)
		var unchecked []fd.FD
		for _, f := range w.tree.FDs().All() {
			if !anySuperset(touched, f.Lhs) {
				continue
			}
			breakable = append(breakable, f)
			if _, ok := w.memo[fdKey(f.Lhs, f.Rhs)]; !ok {
				unchecked = append(unchecked, f)
			}
		}
		stats.Breakable = len(breakable)
		w.checkBatch(unchecked, threads)
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}

		var queue []fd.FD
		enqueued := make(map[string]bool)
		for _, f := range breakable {
			if !w.memo[fdKey(f.Lhs, f.Rhs)] {
				w.tree.Remove(f.Lhs, f.Rhs)
				enqueued[fdKey(f.Lhs, f.Rhs)] = true
				queue = append(queue, f)
			}
		}
		// Each invalid candidate is expanded exactly once (enqueued dedupes
		// the worklist), valid specializations are added even when a
		// generalization already covers them, and the final Minimize sweeps
		// the resulting non-minimal FDs — cheaper than a deep tree lookup
		// per lattice edge.
		for len(queue) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			f := queue[0]
			queue = queue[1:]
			for attr := 0; attr < m; attr++ {
				if attr == f.Rhs || f.Lhs.Test(attr) {
					continue
				}
				// The validator's key prune (Fig. 4): if attr alone
				// determines rhs, every extension by attr is valid but
				// redundant — the tree already covers it.
				if w.tree.FindFdOrGeneral(bitset.FromIndices(m, attr), f.Rhs) {
					continue
				}
				nl := f.Lhs.With(attr)
				if w.validForInserts(nl, f.Rhs) {
					if w.tree.Add(nl, f.Rhs) {
						stats.Specialized++
					}
				} else if k := fdKey(nl, f.Rhs); !enqueued[k] {
					enqueued[k] = true
					queue = append(queue, fd.FD{Lhs: nl, Rhs: f.Rhs})
				}
			}
		}
	}
	trace.Emit(cfg.Observer, trace.IncrementalCandidates{
		BaseFDs:     stats.BaseFDs,
		Breakable:   stats.Breakable,
		DeleteSeeds: stats.DeleteSeeds,
	})

	result := w.tree.FDs().Minimize()
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

// worker bundles the maintenance state: the cover under repair, a checker,
// and a validity memo so no candidate is ever validated twice.
type worker struct {
	ix    *pli.Index
	ck    *validator.Checker
	tree  *fdtree.Tree
	memo  map[string]bool
	stats *Stats
	// vio is the delta's negative cover — the distinct agree sets of row
	// pairs involving an inserted record. Set once before the insert phase.
	vio []bitset.Set
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

// validForInserts memoizes insert-restricted checks — the insert phase's
// validity oracle, sound only for candidates valid on the parent's rows
// (see insertBroken). Memo entries from full checks are reused: a full
// verdict is exact for any candidate.
func (w *worker) validForInserts(lhs bitset.Set, rhs int) bool {
	k := fdKey(lhs, rhs)
	if v, ok := w.memo[k]; ok {
		return v
	}
	v := !insertBroken(w.ix, w.vio, lhs, rhs)
	w.memo[k] = v
	w.stats.Checks++
	return v
}

// insertBroken reports whether a candidate that held on the parent's rows is
// violated on the new snapshot, by consulting the delta's negative cover: a
// violating pair must involve an inserted record and agrees on exactly some
// vsets entry, so the candidate is broken iff some v has lhs ⊆ v and rhs ∉ v.
func insertBroken(ix *pli.Index, vsets []bitset.Set, lhs bitset.Set, rhs int) bool {
	if lhs.IsEmpty() {
		// Pairs that agree on nothing never enter the negative cover, but
		// every pair is a candidate violation of {}→rhs: it survives only if
		// the rhs column is one cluster covering the whole relation.
		p := ix.Plis[rhs]
		return ix.NumRows > 1 && (len(p.Clusters) != 1 || len(p.Clusters[0]) != ix.NumRows)
	}
	for _, v := range vsets {
		if lhs.IsSubsetOf(v) && !v.Test(rhs) {
			return true
		}
	}
	return false
}

// deltaViolations computes the delta's negative cover: the distinct agree
// sets of every row pair that involves an inserted record (id >= from). Two
// records agree on attribute a iff both sit in the same non-singleton PLI
// cluster. Only pairs sharing at least one cluster are enumerated — a pair
// agreeing on nothing has an empty agree set, which constrains no candidate
// with a non-empty LHS (insertBroken handles the empty LHS separately).
func deltaViolations(ix *pli.Index, from int) []bitset.Set {
	seen := make(map[string]bool)
	// visited stamps partner rows per inserted record so a pair sharing
	// several clusters is materialized once.
	visited := make([]int, ix.NumRows)
	var out []bitset.Set
	for r := from; r < ix.NumRows; r++ {
		rec := ix.Row(r)
		stamp := r + 1
		for a := 0; a < ix.NumCols; a++ {
			c := rec[a]
			if c == pli.Singleton {
				continue
			}
			for _, s32 := range ix.Plis[a].Clusters[c] {
				s := int(s32)
				// Skip self-pairs, already-stamped partners, and inserted
				// partners with a smaller id (that pair is enumerated when
				// the partner is the outer record).
				if s == r || (s >= from && s < r) || visited[s] == stamp {
					continue
				}
				visited[s] = stamp
				srec := ix.Row(s)
				ag := bitset.New(ix.NumCols)
				for b := 0; b < ix.NumCols; b++ {
					if rec[b] != pli.Singleton && rec[b] == srec[b] {
						ag.Set(b)
					}
				}
				if k := ag.Key(); !seen[k] {
					seen[k] = true
					out = append(out, ag)
				}
			}
		}
	}
	return out
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

// checkBatch validates insert-phase candidates concurrently with the
// insert-restricted oracle (a result slot per candidate makes every thread
// count bit-for-bit identical) and memoizes the verdicts. stats.Checks
// counts every performed check, whether batched here or run one-off.
func (w *worker) checkBatch(cands []fd.FD, threads int) {
	if len(cands) == 0 {
		return
	}
	verdicts := make([]bool, len(cands))
	if threads > len(cands) {
		threads = len(cands)
	}
	if threads <= 1 {
		for i, f := range cands {
			verdicts[i] = !insertBroken(w.ix, w.vio, f.Lhs, f.Rhs)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					verdicts[i] = !insertBroken(w.ix, w.vio, cands[i].Lhs, cands[i].Rhs)
				}
			}()
		}
		for i := range cands {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for i, f := range cands {
		w.memo[fdKey(f.Lhs, f.Rhs)] = verdicts[i]
	}
	w.stats.Checks += len(cands)
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

// insertedTouchedSets returns the distinct touched-attribute sets of the
// snapshot's inserted records (ids [from, NumRows)).
func insertedTouchedSets(ix *pli.Index, from, m int) []bitset.Set {
	recs := make([][]int32, 0, ix.NumRows-from)
	for r := from; r < ix.NumRows; r++ {
		recs = append(recs, ix.Row(r))
	}
	return touchedSets(recs, m)
}

// anySuperset reports whether lhs is a subset of any of the touched sets.
func anySuperset(touched []bitset.Set, lhs bitset.Set) bool {
	for _, t := range touched {
		if lhs.IsSubsetOf(t) {
			return true
		}
	}
	return false
}
