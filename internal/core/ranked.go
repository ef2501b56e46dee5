package core

import (
	"context"
	"time"

	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/rank"
	"hyfd/internal/relation"
	"hyfd/internal/trace"
)

// DiscoverRanked runs HyFD in ranked top-k mode: validated FDs are scored
// by internal/rank's redundancy measure and the run terminates as soon as
// the top-k of the ranking are provably stable — usually long before the
// full canonical cover is materialized. topK <= 0 ranks the complete cover;
// minScore > 0 additionally drops (and stops below) low-scoring results.
//
// The returned slice is ordered by rank. Its prefix equality contract: the
// result is exactly the first k entries of the full cover rescored offline
// with rank.Rank — early termination never changes the answer, only the
// work. Each stabilized result is also emitted as a trace.RankedResult
// event while the run is still in flight (the any-time stream).
func DiscoverRanked(ctx context.Context, rel *relation.Relation, cfg Config, topK int, minScore float64) ([]rank.FD, *Stats, error) {
	s, err := begin(ctx, rel, nil, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.ranked(ctx, topK, minScore)
}

// DiscoverRankedDataset is the warm variant of DiscoverRanked: it runs over
// an already-prepared Dataset with the same semantics DiscoverDataset has
// for the full mode (cfg.NullSemantics ignored, Stats.Warm set, safe for
// concurrent use over the same immutable ds).
func DiscoverRankedDataset(ctx context.Context, ds *dataset.Dataset, cfg Config, topK int, minScore float64) ([]rank.FD, *Stats, error) {
	s, err := begin(ctx, nil, ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.ranked(ctx, topK, minScore)
}

// ranked runs the engine loop with a rank.Tracker as its level hook. After
// every completed level the tracker folds the level's validated FDs into
// the ranking and recomputes the cut bound (the maximum score any
// still-unvalidated candidate can reach); results scoring strictly above
// the bound have final ranks and stream out immediately as
// trace.RankedResult events. Once k results are stable (or the bound falls
// below minScore) the hook cuts the run without touching the rest of the
// lattice.
func (s *session) ranked(ctx context.Context, topK int, minScore float64) ([]rank.FD, *Stats, error) {
	if s.ix == nil {
		return nil, s.stats, nil
	}
	tracker := rank.NewTracker(rank.NewScorer(s.ix), s.ind.Tree(), topK, minScore)
	hook := func(level int, valid []fd.FD) bool {
		newly, cont := tracker.CompleteLevel(level, valid)
		for _, e := range newly {
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the ranking
			elapsed := time.Since(s.start)
			trace.Emit(s.obs, trace.RankedResult{
				Rank: e.Rank, Score: e.Score,
				Lhs: e.FD.Lhs.Indices(), Rhs: e.FD.Rhs,
				TopK: topK, Duration: elapsed,
			})
		}
		return cont
	}
	if err := s.run(ctx, hook); err != nil {
		return nil, nil, err
	}
	ranked := tracker.Finalize()
	return ranked, s.done(len(ranked)), nil
}
