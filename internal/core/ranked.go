package core

import (
	"context"
	"errors"
	"runtime"
	"time"

	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/guardian"
	"hyfd/internal/inductor"
	"hyfd/internal/metrics"
	"hyfd/internal/pli"
	"hyfd/internal/rank"
	"hyfd/internal/relation"
	"hyfd/internal/sampler"
	"hyfd/internal/trace"
	"hyfd/internal/validator"
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
	if ctx == nil {
		//hyfdvet:allow ctxflow — documented nil-ctx defaulting at the engine's public boundary
		ctx = context.Background()
	}
	if rel == nil {
		return nil, nil, errors.New("hyfd: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, nil, err
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	stats := &Stats{Rows: rel.NumRows(), Cols: rel.NumCols(), Complete: true, Threads: threads}
	if rel.NumCols() == 0 {
		stats.MaxLhs = 0
		return nil, stats, nil
	}
	em := metrics.NewEngineMetrics(cfg.Metrics)
	obs := trace.Multi(statsTimers{stats}, em.Observer(), cfg.Observer)
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, nil, interrupted(err)
	}
	ds, err := prepare(ctx, rel, cfg.NullSemantics, threads, obs, em)
	if err != nil {
		return nil, nil, interrupted(err)
	}
	return runRanked(ctx, ds.Index(), cfg, threads, topK, minScore, stats, obs, em, start)
}

// DiscoverRankedDataset is the warm variant of DiscoverRanked: it runs over
// an already-prepared Dataset with the same semantics DiscoverDataset has
// for the full mode (cfg.NullSemantics ignored, Stats.Warm set, safe for
// concurrent use over the same immutable ds).
func DiscoverRankedDataset(ctx context.Context, ds *dataset.Dataset, cfg Config, topK int, minScore float64) ([]rank.FD, *Stats, error) {
	if ctx == nil {
		//hyfdvet:allow ctxflow — documented nil-ctx defaulting at the engine's public boundary
		ctx = context.Background()
	}
	if ds == nil {
		return nil, nil, errors.New("hyfd: nil dataset")
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = ds.Threads()
	}
	stats := &Stats{Rows: ds.NumRows(), Cols: ds.NumCols(), Complete: true, Threads: threads, Warm: true}
	if ds.NumCols() == 0 {
		stats.MaxLhs = 0
		return nil, stats, nil
	}
	em := metrics.NewEngineMetrics(cfg.Metrics)
	obs := trace.Multi(statsTimers{stats}, em.Observer(), cfg.Observer)
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, nil, interrupted(err)
	}
	trace.Emit(obs, trace.PreprocessingDone{
		Rows: stats.Rows, Cols: stats.Cols, Threads: threads, Warm: true,
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		Duration: time.Since(start),
	})
	return runRanked(ctx, ds.Index(), cfg, threads, topK, minScore, stats, obs, em, start)
}

// runRanked is the priority-driven variant of run: the same alternating
// Phase 1 / Phase 2 loop, plus a rank.Tracker hooked into the validator's
// level boundary. After every completed level the tracker folds the level's
// validated FDs into the ranking and recomputes the cut bound (the maximum
// score any still-unvalidated candidate can reach); results scoring
// strictly above the bound have final ranks and stream out immediately as
// trace.RankedResult events. Once k results are stable (or the bound falls
// below minScore) the level callback stops the validator mid-run and the
// loop exits without touching the rest of the lattice.
func runRanked(ctx context.Context, ix *pli.Index, cfg Config, threads, topK int, minScore float64, stats *Stats, obs trace.Observer, em *metrics.EngineMetrics, start time.Time) ([]rank.FD, *Stats, error) {
	smp := sampler.New(ix, sampler.Config{
		Threshold:   cfg.EfficiencyThreshold,
		Threads:     threads,
		Unfocused:   cfg.UnfocusedSampling,
		Instruments: em.Sampler(),
	})
	ind := inductor.New(ix.NumCols)
	if cfg.MaxLhsSize > 0 && cfg.MaxLhsSize < ix.NumCols {
		ind.Tree().SetMaxLhs(cfg.MaxLhsSize)
		stats.Complete = false
	}

	tracker := rank.NewTracker(rank.NewScorer(ix), ind.Tree(), topK, minScore)
	levelFn := func(level int, valid []fd.FD) bool {
		newly, cont := tracker.CompleteLevel(level, valid)
		for _, e := range newly {
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the ranking
			elapsed := time.Since(start)
			trace.Emit(obs, trace.RankedResult{
				Rank: e.Rank, Score: e.Score,
				Lhs: e.FD.Lhs.Indices(), Rhs: e.FD.Rhs,
				Duration: elapsed,
			})
			if em != nil {
				if topK > 0 && e.Rank == topK {
					em.RankedTimeToTopK.Observe(elapsed.Seconds())
				}
			}
		}
		return cont
	}

	vopts := []validator.Option{
		validator.WithThreads(threads),
		validator.WithObserver(obs),
		validator.WithInstruments(em.Validator()),
		validator.WithLevelFunc(levelFn),
	}
	if cfg.EfficiencyThreshold > 0 {
		vopts = append(vopts, validator.WithInvalidThreshold(cfg.EfficiencyThreshold))
	}
	if cfg.IntersectionValidation {
		vopts = append(vopts, validator.WithIntersectionValidation())
	}
	val := validator.New(ix, ind.Tree(), vopts...)
	grd := guardian.New(ind.Tree(), cfg.MemoryBudgetBytes)
	if em != nil {
		grd.SetFootprintGauge(em.FDTreeBytes)
	}
	checkGuardian := func() {
		before := grd.Interventions
		grd.Check()
		if grd.Interventions > before {
			trace.Emit(obs, trace.GuardianPrune{
				MaxLhs: grd.MaxLhs(), Interventions: grd.Interventions,
				FootprintBytes: grd.Footprint(),
			})
		}
	}

	cut := false
	var suggestions []pli.Pair
	for {
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		roundStart := time.Now()
		newObs, err := smp.Run(ctx, suggestions)
		if err != nil {
			return nil, nil, interrupted(err)
		}
		stats.SamplingRounds++
		ind.Update(newObs)
		checkGuardian()
		trace.Emit(obs, trace.SamplingRound{
			Round:           stats.SamplingRounds,
			NewObservations: len(newObs),
			Comparisons:     smp.Comparisons,
			Windows:         smp.Windows,
			Threshold:       smp.Threshold(),
			AllPairs:        smp.AllPairs(),
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			Duration: time.Since(roundStart),
		})
		trace.Emit(obs, trace.PhaseSwitch{
			From: trace.PhaseSampling, To: trace.PhaseValidation,
			Switches: stats.PhaseSwitches,
		})

		exhaustive := len(newObs) == 0
		res, err := val.Run(ctx, exhaustive)
		if err != nil {
			return nil, nil, interrupted(err)
		}
		checkGuardian()
		if res.Stopped {
			cut = true
			break
		}
		if res.Done {
			break
		}
		suggestions = res.Suggestions
		if cfg.NoSuggestions {
			suggestions = nil
		}
		stats.PhaseSwitches++
		trace.Emit(obs, trace.PhaseSwitch{
			From: trace.PhaseValidation, To: trace.PhaseSampling,
			Switches: stats.PhaseSwitches,
		})
	}

	stats.Comparisons = smp.Comparisons
	stats.Validations = val.Validations
	stats.Observations = smp.ObservationCount()
	stats.MaxLhs = ind.Tree().MaxLhs()
	if grd.Pruned || cut {
		// A ranked cut intentionally leaves the lattice unexplored: the
		// result is the exact top-k, not the complete cover.
		stats.Complete = false
	}
	ranked := tracker.Finalize()
	stats.FDCount = len(ranked)
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	trace.Emit(obs, trace.Done{FDs: stats.FDCount, Duration: time.Since(start)})
	return ranked, stats, nil
}
