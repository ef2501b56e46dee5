// Package incremental maintains a minimal FD cover across dataset snapshots.
// A batch with deletes re-runs HyFD's discovery on the rebuilt snapshot, and
// an insert-only batch specializes the cover with the delta's negative cover
// through HyFD's induction (§7, Alg. 3), the algorithm discovery runs on
// sampled record pairs.
//
// # Deletes: rediscovery
//
// Dataset.Apply already rebuilds every PLI of a snapshot with deletes, which
// is HyFD's preprocessing (Alg. 1), so Maintain runs the rest of discovery on
// it (core.DiscoverDataset): a batch with deletes, mixed batches included,
// costs at most one warm discovery of the table.
//
// # Inserts: induction
//
// An insert-only batch hands an FDTree seeded with the base cover to an
// inductor (inductor.Over) and induces the delta's negative cover into it:
// the distinct agree sets of every row pair that involves an inserted
// record. The cover stays exact:
//
//   - Before induction, every FD that is valid on the new snapshot has a
//     generalization in the tree, because the base cover is exact for the
//     parent.
//   - Every FD in the tree holds on the parent's rows.
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
// LHS with the same RHS. The tree starts as the base cover's antichain and
// induction keeps it one, as core.run argues for its all-pairs exit, so the
// extracted tree is already the minimal cover. The minimal cover is unique,
// so the maintained result is byte-identical to a cold re-run.
package incremental

import (
	"context"
	"errors"
	"sort"
	"time"

	"hyfd/internal/bitset"
	"hyfd/internal/core"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/inductor"
	"hyfd/internal/pli"
	"hyfd/internal/trace"
)

// Config configures a maintenance run.
type Config struct {
	// Threads is the worker count of a batch with deletes, which re-runs
	// discovery; any value <= 0 inherits the snapshot's resolved count, as
	// in a warm discovery run. Insert-only batches run sequentially.
	Threads int
	// Observer receives the closing IncrementalDone event; nil disables
	// tracing. It does not receive the rediscovery's engine events.
	Observer trace.Observer
}

// Stats reports what a maintenance run did.
type Stats struct {
	// BaseFDs is the size of the maintained base cover.
	BaseFDs int
	// Breakable counts base FDs the inserted records of an insert-only
	// batch broke; a batch with deletes reports 0.
	Breakable int
	// Checks counts the refinement validations of a batch with deletes,
	// the rediscovery's Stats.Validations; insert-only batches, which run
	// induction, perform none.
	Checks int
	// Specialized counts FDs induction added while repairing broken FDs,
	// net of those it removed again; a batch with deletes reports 0.
	Specialized int
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
	stats.BaseFDs = base.Size()

	var result *fd.Set
	if prov.Deletes > 0 {
		set, cs, err := core.DiscoverDataset(ctx, snap, core.Config{Threads: cfg.Threads})
		if err != nil {
			return nil, stats, err
		}
		result, stats.Checks = set, int(cs.Validations)
	} else {
		tree, err := induceInserts(ctx, snap.Index(), prov.InsertedFrom, base, &stats)
		if err != nil {
			return nil, stats, err
		}
		result = tree.FDs()
	}
	stats.FDs = result.Size()
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	stats.Duration = time.Since(start)
	trace.Emit(cfg.Observer, trace.IncrementalDone{
		BaseFDs:     stats.BaseFDs,
		Breakable:   stats.Breakable,
		FDs:         stats.FDs,
		Checks:      stats.Checks,
		Specialized: stats.Specialized,
		Duration:    stats.Duration,
	})
	return result, stats, nil
}

// inductChunk is the number of agree sets the insert phase induces between
// two cancellation checks.
const inductChunk = 64

// cancelStride is the number of cluster partners deltaViolations visits
// between two cancellation checks, the stride the sampler checks at.
const cancelStride = 4096

// induceInserts seeds an FDTree with the base cover and induces the
// negative cover of the records inserted from id from on into it, recording
// Breakable and Specialized. Update sorts each call's agree sets by the
// total order below, so sorting the whole cover first and feeding it in
// chunks processes it as one call would, with a cancellation check between
// chunks.
func induceInserts(ctx context.Context, ix *pli.Index, from int, base *fd.Set, stats *Stats) (*fdtree.Tree, error) {
	tree := fdtree.New(ix.NumCols)
	baseFDs := base.All()
	for _, f := range baseFDs {
		tree.Add(f.Lhs, f.Rhs)
	}
	nonFds, err := deltaViolations(ctx, ix, from)
	if err != nil {
		return nil, err
	}
	sort.Slice(nonFds, func(i, j int) bool {
		return bitset.CompareCardinalityDesc(nonFds[i], nonFds[j]) < 0
	})
	in := inductor.Over(tree)
	before := tree.CountFDs()
	for len(nonFds) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := len(nonFds)
		if n > inductChunk {
			n = inductChunk
		}
		in.Update(nonFds[:n])
		nonFds = nonFds[n:]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, f := range baseFDs {
		if !tree.ContainsFd(f.Lhs, f.Rhs) {
			stats.Breakable++
		}
	}
	stats.Specialized = tree.CountFDs() - before + stats.Breakable
	return tree, nil
}

// deltaViolations computes the delta's negative cover: the distinct agree
// sets of every row pair that involves an inserted record (id >= from). Two
// records agree on attribute a iff both sit in the same non-singleton PLI
// cluster, so the pairs sharing a cluster are enumerated, and the empty
// agree set is added when some inserted record shares no cluster with some
// other record. The context is checked every cancelStride partner visits.
func deltaViolations(ctx context.Context, ix *pli.Index, from int) ([]bitset.Set, error) {
	seen := bitset.NewHashSet(ix.NumCols)
	ag := bitset.New(ix.NumCols)
	// visited stamps partner rows per inserted record so a pair sharing
	// several clusters is counted and materialized once.
	visited := make([]int, ix.NumRows)
	var out []bitset.Set
	disjoint := false
	visits := 0
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
				if visits%cancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				visits++
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
				pli.AgreeSet(ag, rec, ix.Row(s))
				if seen.Add(ag) {
					out = append(out, ag.Clone())
				}
			}
		}
		disjoint = disjoint || partners < ix.NumRows-1
	}
	if disjoint {
		out = append(out, bitset.New(ix.NumCols))
	}
	return out, nil
}
