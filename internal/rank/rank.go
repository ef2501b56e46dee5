// Package rank scores FD candidates for ranked top-k discovery and tracks
// when the top of the ranking becomes stable, enabling early termination.
//
// The score of a candidate X -> A is a redundancy measure computed from the
// per-attribute PLIs built during preprocessing:
//
//	score(X -> A) = 1 / (max(1,|X|) * d(X))    d(X) = max_{B in X} distinct(B)
//
// where distinct(B) is the number of equivalence classes of attribute B
// (PLI.NumClusters, which counts stripped singleton classes and applies the
// configured null semantics). d({}) = 1, so the empty LHS scores 1 — a
// constant column is maximally redundant. Small determinant sets over
// low-cardinality attributes score highest: they are the FDs that explain
// the most repetition per determinant value, the "interesting" dependencies
// an interactive caller wants first.
//
// Two properties make the score suitable for early termination:
//
//  1. It depends only on the LHS attribute set and the per-attribute
//     distinct counts — never on row order or (for null-free relations)
//     row multiplicity, which the metamorphic tests pin.
//  2. It is monotone non-increasing under LHS specialization: adding an
//     attribute to X can only grow |X| and max-distinct. Every candidate the
//     engine will ever validate in the future is a specialization of some
//     node on the current unvalidated frontier, so the frontier's maximum
//     score bounds all future results (the cut bound — see Tracker).
package rank

import (
	"sort"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/pli"
)

// FD is a scored functional dependency with its final position in the
// ranked order (1-based). Rank is 0 until the position is assigned.
type FD struct {
	FD    fd.FD
	Score float64
	Rank  int
}

// Scorer computes candidate scores from the distinct-value counts of the
// prepared PLIs. It is immutable after construction and safe for
// concurrent use.
type Scorer struct {
	distinct []int
}

// NewScorer captures the per-attribute equivalence-class counts of the
// prepared index.
func NewScorer(ix *pli.Index) *Scorer {
	distinct := make([]int, ix.NumCols)
	for a, p := range ix.Plis {
		distinct[a] = p.NumClusters
	}
	return &Scorer{distinct: distinct}
}

// Score returns the redundancy score of any candidate with determinant lhs.
// The score is independent of the dependent attribute: all candidates
// sharing a determinant explain the same amount of repetition.
func (s *Scorer) Score(lhs bitset.Set) float64 {
	card, dmax := 0, 1
	lhs.ForEach(func(a int) bool {
		card++
		if s.distinct[a] > dmax {
			dmax = s.distinct[a]
		}
		return true
	})
	if card == 0 {
		card = 1
	}
	return 1 / (float64(card) * float64(dmax))
}

// Less is the ranked order: score descending, then the canonical cover
// order (Rhs ascending, LHS cardinality ascending, LHS key ascending) as a
// deterministic tie-break. It is a strict total order over distinct FDs.
func Less(a, b FD) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.FD.Rhs != b.FD.Rhs {
		return a.FD.Rhs < b.FD.Rhs
	}
	ca, cb := a.FD.Lhs.Cardinality(), b.FD.Lhs.Cardinality()
	if ca != cb {
		return ca < cb
	}
	return bitset.CompareKeys(a.FD.Lhs, b.FD.Lhs) < 0
}

// Rank scores and orders a complete FD cover offline, returning the top k
// (k <= 0 means all) with scores >= minScore and ranks assigned. This is
// the reference ranking the differential fuzz oracle compares the engine's
// early-terminated output against.
func Rank(fds []fd.FD, s *Scorer, k int, minScore float64) []FD {
	scored := make([]FD, 0, len(fds))
	for _, f := range fds {
		scored = append(scored, FD{FD: f, Score: s.Score(f.Lhs)})
	}
	sort.Slice(scored, func(i, j int) bool { return Less(scored[i], scored[j]) })
	out := make([]FD, 0, len(scored))
	for _, e := range scored {
		if k > 0 && len(out) >= k {
			break
		}
		if e.Score < minScore {
			break
		}
		e.Rank = len(out) + 1
		out = append(out, e)
	}
	return out
}

// Tracker folds validated FDs into a ranking as the engine's level-wise
// validation proceeds and decides when the top-k prefix is stable.
//
// After each completed level it recomputes the cut bound: the maximum score
// over the unvalidated frontier (all marked candidates at tree depths the
// validator has not finished). Because the score is monotone under
// specialization and validated FDs are never retracted, every future result
// scores at most the bound; a validated FD scoring strictly above it can
// never be displaced, so its rank is final and it is emitted immediately
// (the any-time stream). Discovery stops once k results are stable — the
// emitted top-k then equals the top-k of the full canonical cover rescored
// offline, including order, because every unseen FD scores strictly below
// the k-th emitted one.
type Tracker struct {
	scorer   *Scorer
	tree     *fdtree.Tree
	topK     int // 0 = unbounded
	minScore float64

	validated []FD // ranked order maintained after every level
	stable    int  // prefix of validated with final ranks assigned
	bound     float64
}

// NewTracker builds a tracker over the engine's candidate tree. topK <= 0
// ranks the entire cover (no early cut from k); minScore 0 disables the
// score floor.
func NewTracker(scorer *Scorer, tree *fdtree.Tree, topK int, minScore float64) *Tracker {
	return &Tracker{scorer: scorer, tree: tree, topK: topK, minScore: minScore, bound: 1}
}

// Bound returns the current cut bound: an upper bound on the score of any
// FD not yet validated.
func (t *Tracker) Bound() float64 { return t.bound }

// Stable returns how many results have been emitted with final ranks.
func (t *Tracker) Stable() int { return t.stable }

// CompleteLevel folds the FDs validated on one finished tree level into the
// ranking, recomputes the cut bound from the remaining frontier, and
// returns the newly stable results (final ranks assigned, ready to emit)
// plus whether discovery needs to continue. cont is false once the top-k
// are stable or the bound has fallen below the score floor.
func (t *Tracker) CompleteLevel(level int, valid []fd.FD) (newlyStable []FD, cont bool) {
	for _, f := range valid {
		t.validated = append(t.validated, FD{FD: f, Score: t.scorer.Score(f.Lhs)})
	}
	// Re-sorting the whole slice is deterministic and cannot reorder the
	// stable prefix: every FD validated after a result became stable scores
	// at most the bound that made it stable, i.e. strictly below it.
	sort.Slice(t.validated, func(i, j int) bool { return Less(t.validated[i], t.validated[j]) })
	t.bound = t.frontierBound(level + 1)
	for t.stable < len(t.validated) {
		if t.topK > 0 && t.stable >= t.topK {
			break
		}
		e := &t.validated[t.stable]
		// Strict inequality: a frontier candidate tying the score could
		// still validate and precede e in the canonical tie-break.
		if e.Score <= t.bound || e.Score < t.minScore {
			break
		}
		e.Rank = t.stable + 1
		newlyStable = append(newlyStable, *e)
		t.stable++
	}
	cont = true
	if t.topK > 0 && t.stable >= t.topK {
		cont = false
	}
	if t.bound < t.minScore {
		cont = false
	}
	return newlyStable, cont
}

// frontierBound walks the unvalidated part of the candidate tree (depths >=
// from) and returns the maximum score over marked candidates; 0 when the
// frontier is empty (then every validated FD is stable).
func (t *Tracker) frontierBound(from int) float64 {
	bound := 0.0
	maxDepth := t.tree.Depth()
	for d := from; d <= maxDepth; d++ {
		for _, nd := range t.tree.GetLevel(d) {
			if !nd.HasFds() {
				continue
			}
			if s := t.scorer.Score(nd.Lhs); s > bound {
				bound = s
			}
		}
	}
	return bound
}

// Finalize returns the complete ranked result: top-k (or all, for topK <=
// 0) validated FDs with scores >= minScore, ranks assigned. Entries already
// emitted via CompleteLevel keep their positions — Finalize is a superset
// extension of the emitted prefix, never a reordering.
func (t *Tracker) Finalize() []FD {
	out := make([]FD, 0, len(t.validated))
	for _, e := range t.validated {
		if t.topK > 0 && len(out) >= t.topK {
			break
		}
		if e.Score < t.minScore {
			break
		}
		e.Rank = len(out) + 1
		out = append(out, e)
	}
	return out
}
