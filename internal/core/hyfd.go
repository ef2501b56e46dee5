// Package core orchestrates the HyFD algorithm (§4, Fig. 2): the
// Preprocessor builds PLIs and compressed records, then control alternates
// between Phase 1 (Sampler + Inductor, column-efficient) and Phase 2
// (Validator, row-efficient) until the Validator confirms every candidate.
// An optional memory Guardian bounds the result size.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/guardian"
	"hyfd/internal/inductor"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
	"hyfd/internal/sampler"
	"hyfd/internal/trace"
	"hyfd/internal/validator"
)

// Config parameterizes a HyFD run. The zero value selects the paper's
// defaults: null=null semantics, 1 % efficiency thresholds for both phases,
// single-threaded execution, unbounded results. The engine reports only
// through Observer: a caller that meters runs composes the metrics bridge
// (metrics.EngineMetrics.Observer) into it, like any other observer.
type Config struct {
	// NullSemantics selects ⊥=⊥ (default) or ⊥≠⊥ comparisons.
	NullSemantics relation.NullSemantics
	// EfficiencyThreshold is HyFD's only tuning parameter (§10.5): the
	// initial sampling efficiency cutoff and the validation
	// invalid-candidate cutoff. 0 means the paper's default of 0.01.
	EfficiencyThreshold float64
	// Threads is the single worker-count knob of the whole engine: it
	// uniformly drives preprocessing (PLI construction and record
	// inversion), the sampler's cluster sortation and window runs, and
	// candidate validation. 1 forces single-threaded execution (the
	// paper's base variant); any value <= 0 picks runtime.GOMAXPROCS(0).
	// Every thread count produces the identical FD set, PLIs, and
	// observation order — the engine's determinism contract.
	Threads int
	// MaxLhsSize bounds result LHS cardinality up front (0 = unbounded).
	MaxLhsSize int
	// MemoryBudgetBytes arms the Guardian: when the result tree's
	// estimated footprint exceeds the budget, the largest-LHS results are
	// discarded (0 = Guardian disabled).
	MemoryBudgetBytes int
	// Observer, when non-nil, receives trace events as the run progresses:
	// preprocessing, sampling rounds, phase switches, validation levels,
	// Guardian interventions, ranked results, and completion. Events arrive
	// synchronously from the coordinating goroutine, in run order, after
	// the engine has folded them into the run's Stats.
	Observer trace.Observer
}

// Stats reports telemetry of one discovery run, mirroring the quantities
// the paper's evaluation discusses. The JSON field names are part of the
// machine-readable output contract (hyfd -stats-json, BENCH_*.json);
// durations serialize as integer nanoseconds under *_ns names.
type Stats struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// FDCount is the number of minimal FDs found.
	FDCount int `json:"fd_count"`
	// PhaseSwitches counts returns from Phase 2 into Phase 1; the paper
	// reports three to eight on typical datasets.
	PhaseSwitches int `json:"phase_switches"`
	// SamplingRounds counts Sampler invocations (PhaseSwitches + 1).
	SamplingRounds int `json:"sampling_rounds"`
	// Comparisons is the total number of record-pair comparisons.
	Comparisons int64 `json:"comparisons"`
	// Validations is the number of FDTree node validations.
	Validations int64 `json:"validations"`
	// Observations is the number of distinct FD-violations sampled.
	Observations int `json:"observations"`
	// Complete is false when the Guardian (or MaxLhsSize) pruned results;
	// the output then contains exactly the minimal FDs with LHS size up to
	// MaxLhs.
	Complete bool `json:"complete"`
	// MaxLhs is the final LHS bound (== Cols when unbounded).
	MaxLhs int `json:"max_lhs"`
	// Threads is the resolved worker count the run executed with (the
	// configured value, or GOMAXPROCS when that was <= 0).
	Threads int `json:"threads"`
	// Warm is true when the run reused an already-prepared Dataset: its
	// PreprocessingTime then covers only the (near-zero) reuse overhead,
	// not the amortized build cost (see dataset.Dataset.PreprocessingTime).
	Warm bool `json:"warm,omitempty"`
	// AllPairs is true when the sampler spent its budget of n(n-1)/2
	// comparisons and then compared every record pair; a full-cover run
	// then returns the induced cover without (further) validation.
	AllPairs bool `json:"all_pairs,omitempty"`

	// Wall-clock per-phase timings, sourced from the run's trace events:
	// PreprocessingTime covers PLI and compressed-record construction,
	// SamplingTime sums the Phase 1 rounds (sampling + induction),
	// InductionTime the induction part of those rounds, ValidationTime
	// sums the Phase 2 levels, and TotalTime covers the whole run.
	PreprocessingTime time.Duration `json:"preprocessing_ns"`
	SamplingTime      time.Duration `json:"sampling_ns"`
	InductionTime     time.Duration `json:"induction_ns"`
	ValidationTime    time.Duration `json:"validation_ns"`
	TotalTime         time.Duration `json:"total_ns"`
}

// statsObserver is the engine's internal observer: it folds the durations
// and counts carried by the trace events back into the run's Stats, so the
// public telemetry and every other observer are fed from the same event
// stream.
type statsObserver struct{ stats *Stats }

func (o statsObserver) Observe(e trace.Event) {
	switch ev := e.(type) {
	case trace.PreprocessingDone:
		o.stats.PreprocessingTime = ev.Duration
	case trace.SamplingRound:
		o.stats.SamplingTime += ev.Duration
		o.stats.InductionTime += ev.Induction
		o.stats.AllPairs = o.stats.AllPairs || ev.AllPairs
		o.stats.Comparisons = ev.Comparisons
		o.stats.Observations += ev.NewObservations
	case trace.ValidationLevel:
		o.stats.ValidationTime += ev.Duration
		o.stats.Validations += int64(ev.Validations)
	case trace.Done:
		o.stats.TotalTime = ev.Duration
	}
}

// Discover runs HyFD on the relation and returns all minimal, non-trivial
// functional dependencies along with run telemetry.
//
// The context is honored at cancellation checkpoints inside the sampler's
// cluster-window loops and the validator's level traversal (including its
// parallel workers): a canceled or expired context makes Discover return
// promptly with an error wrapping ctx.Err().
func Discover(ctx context.Context, rel *relation.Relation, cfg Config) (*fd.Set, *Stats, error) {
	s, err := begin(ctx, rel, nil, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.cover(ctx)
}

// DiscoverDataset runs HyFD over an already-prepared Dataset — a warm run.
// It never rebuilds PLIs: Stats.Warm is set, Stats.PreprocessingTime covers
// only the (near-zero) reuse overhead, and observers receive a single
// PreprocessingDone event with Warm set instead of the build sequence.
//
// cfg.NullSemantics is ignored: the Dataset's PLIs were built under
// ds.NullSemantics() and a conflicting option could not be honored without
// rebuilding. cfg.Threads > 0 overrides the worker count for sampling and
// validation; any value <= 0 inherits the dataset's resolved count. Because
// the Dataset is immutable, any number of DiscoverDataset calls may run
// concurrently over the same ds, and each produces a result bit-for-bit
// identical to a cold Discover at the same thread count.
func DiscoverDataset(ctx context.Context, ds *dataset.Dataset, cfg Config) (*fd.Set, *Stats, error) {
	s, err := begin(ctx, nil, ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.cover(ctx)
}

// Prepare runs HyFD's preprocessing (Alg. 1: PLI construction + record
// inversion) once over the relation and returns the immutable Dataset that
// warm runs — DiscoverDataset here, and every converted baseline — consume.
// cfg.Observer receives the same PLIBuilt (in attribute order) and
// PreprocessingDone events a cold Discover would emit. Only
// cfg.NullSemantics, cfg.Threads, and cfg.Observer are consulted.
func Prepare(ctx context.Context, rel *relation.Relation, cfg Config) (*dataset.Dataset, error) {
	if rel == nil {
		return nil, errors.New("hyfd: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	ds, err := prepare(ctx, rel, cfg.NullSemantics, threads, cfg.Observer)
	if err != nil {
		return nil, interrupted(err)
	}
	return ds, nil
}

// buildStat records one attribute's PLI build outcome for ordered replay.
type buildStat struct {
	clusters int
	duration time.Duration
}

// prepare builds the Dataset and emits the preprocessing event sequence.
// The build fans attributes over the worker pool; per-attribute timings land
// in builds via disjoint slot writes, and the trace events replay them in
// attribute order afterwards so observers keep their single-goroutine,
// deterministic-order contract. Each PLIBuilt event views its attribute's
// cluster sizes in the immutable PLI, without a copy.
func prepare(ctx context.Context, rel *relation.Relation, ns relation.NullSemantics, threads int, obs trace.Observer) (*dataset.Dataset, error) {
	builds := make([]buildStat, rel.NumCols())
	ds, err := dataset.Prepare(ctx, rel, dataset.Options{
		NullSemantics: ns,
		Threads:       threads,
		OnBuild: func(p *pli.PLI, d time.Duration) {
			builds[p.Attr] = buildStat{p.NumClusters, d}
		},
	})
	if err != nil {
		return nil, err
	}
	plis := ds.Index().Plis
	for attr, b := range builds {
		trace.Emit(obs, trace.PLIBuilt{
			Attr: attr, Clusters: b.clusters, Duration: b.duration,
			Sizes: trace.NewClusterSizes(plis[attr].Clusters),
		})
	}
	trace.Emit(obs, trace.PreprocessingDone{
		Rows: rel.NumRows(), Cols: rel.NumCols(), Threads: threads, Duration: ds.PreprocessingTime(),
	})
	return ds, nil
}

// session is one discovery run: its configuration, the prepared index,
// the candidate tree, and the telemetry it reports through.
type session struct {
	cfg     Config
	threads int
	stats   *Stats
	obs     trace.Observer
	start   time.Time
	// ix and ind are nil when the input has no columns: the result is then
	// empty and the run emits no events.
	ix  *pli.Index
	ind *inductor.Inductor
}

// begin is the setup every entry shares. It resolves the worker count,
// builds Stats and the observer chain, and starts the clock. A cold run
// (rel set, ds nil) then prepares rel, emitting PLIBuilt events and
// PreprocessingDone; a warm run (ds set) emits PreprocessingDone with Warm
// set. Finally it seeds the candidate tree under cfg.MaxLhsSize.
func begin(ctx context.Context, rel *relation.Relation, ds *dataset.Dataset, cfg Config) (*session, error) {
	s := &session{cfg: cfg, threads: cfg.Threads}
	switch {
	case ds != nil:
		s.stats = &Stats{Rows: ds.NumRows(), Cols: ds.NumCols(), Warm: true}
		if s.threads <= 0 {
			s.threads = ds.Threads()
		}
	case rel == nil:
		return nil, errors.New("hyfd: nil relation or dataset")
	default:
		if err := rel.Validate(); err != nil {
			return nil, err
		}
		s.stats = &Stats{Rows: rel.NumRows(), Cols: rel.NumCols()}
		if s.threads <= 0 {
			s.threads = runtime.GOMAXPROCS(0)
		}
	}
	s.stats.Complete, s.stats.Threads = true, s.threads
	if s.stats.Cols == 0 {
		return s, nil
	}
	s.obs = trace.Multi(statsObserver{s.stats}, cfg.Observer)
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	s.start = time.Now()
	if err := ctx.Err(); err != nil {
		return nil, interrupted(err)
	}
	if ds == nil {
		// Preprocessor (Alg. 1). The relation was already validated above,
		// so any error out of prepare is a context interruption.
		var err error
		if ds, err = prepare(ctx, rel, cfg.NullSemantics, s.threads, s.obs); err != nil {
			return nil, interrupted(err)
		}
	} else {
		trace.Emit(s.obs, trace.PreprocessingDone{
			Rows: s.stats.Rows, Cols: s.stats.Cols, Threads: s.threads, Warm: true,
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			Duration: time.Since(s.start),
		})
	}
	s.ix = ds.Index()
	s.ind = inductor.New(s.ix.NumCols)
	if cfg.MaxLhsSize > 0 && cfg.MaxLhsSize < s.ix.NumCols {
		s.ind.Tree().SetMaxLhs(cfg.MaxLhsSize)
		s.stats.Complete = false
	}
	return s, nil
}

// cover runs the engine loop in fd mode and extracts the complete cover.
func (s *session) cover(ctx context.Context) (*fd.Set, *Stats, error) {
	if s.ix == nil {
		return fd.NewSet(0), s.stats, nil
	}
	if err := s.run(ctx, nil); err != nil {
		return nil, nil, err
	}
	fds := s.ind.Tree().FDs()
	return fds, s.done(fds.Size()), nil
}

// run executes the alternating Phase 1 / Phase 2 loop (Fig. 2) over the
// session's index; the index is only read. A non-nil level hook receives
// the FDs of every completed validation level — ranked mode's tracker —
// and a hook that returns false cuts the run, which leaves Stats.Complete
// false.
func (s *session) run(ctx context.Context, hook func(level int, valid []fd.FD) bool) error {
	cfg, stats, obs, tree := s.cfg, s.stats, s.obs, s.ind.Tree()
	smp := sampler.New(s.ix, sampler.Config{
		Threshold: cfg.EfficiencyThreshold,
		Threads:   s.threads,
	})
	vopts := []validator.Option{
		validator.WithThreads(s.threads),
		validator.WithObserver(obs),
		validator.WithLevelFunc(hook),
	}
	if cfg.EfficiencyThreshold > 0 {
		vopts = append(vopts, validator.WithInvalidThreshold(cfg.EfficiencyThreshold))
	}
	val := validator.New(s.ix, tree, vopts...)
	grd := guardian.New(tree, cfg.MemoryBudgetBytes)
	// checkGuardian runs the Guardian and reports any new intervention.
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

	var suggestions []pli.Pair
	for {
		// Phase 1: focused sampling + induction.
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		roundStart := time.Now()
		newObs, err := smp.Run(ctx, suggestions)
		if err != nil {
			return interrupted(err)
		}
		stats.SamplingRounds++
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		inductionStart := time.Now()
		s.ind.Update(newObs)
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		induction := time.Since(inductionStart)
		checkGuardian()
		trace.Emit(obs, trace.SamplingRound{
			Round:           stats.SamplingRounds,
			NewObservations: len(newObs),
			Comparisons:     smp.Comparisons,
			Windows:         smp.Windows,
			Efficiencies:    smp.WindowEfficiencies(),
			Threshold:       smp.Threshold(),
			AllPairs:        smp.AllPairs(),
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			Duration:       time.Since(roundStart),
			Induction:      induction,
			FootprintBytes: grd.Footprint(),
		})
		// Once the sampler has compared every record pair, the induced
		// tree is final, in any round. Every agree set is then in the
		// negative cover, and induction removed each LHS contained in an
		// agree set that misses its RHS. Every LHS added later, by the
		// inductor or the validator, extends an LHS that was in the tree,
		// so by induction on LHS size no LHS contained in a processed
		// agree set returns: every candidate left is valid. The tree stays
		// an antichain that holds a generalization of every valid FD, so
		// every candidate is also minimal. Under a MaxLhsSize or Guardian
		// bound it holds exactly the minimal FDs up to that bound, as
		// Fdep's does.
		if smp.AllPairs() {
			if hook != nil && !replay(tree, val.Level(), hook) {
				stats.Complete = false
			}
			break
		}
		trace.Emit(obs, trace.PhaseSwitch{
			From: trace.PhaseSampling, To: trace.PhaseValidation,
			Switches: stats.PhaseSwitches,
		})

		// Phase 2: level-wise validation. If sampling produced nothing
		// new, another switch back could not improve the approximation,
		// so validate exhaustively to guarantee termination.
		exhaustive := len(newObs) == 0
		res, err := val.Run(ctx, exhaustive)
		if err != nil {
			return interrupted(err)
		}
		checkGuardian()
		if res.Stopped {
			// A hook cut leaves the lattice unexplored on purpose.
			stats.Complete = false
			break
		}
		if res.Done {
			break
		}
		suggestions = res.Suggestions
		stats.PhaseSwitches++
		trace.Emit(obs, trace.PhaseSwitch{
			From: trace.PhaseValidation, To: trace.PhaseSampling,
			Switches: stats.PhaseSwitches,
		})
	}

	stats.MaxLhs = tree.MaxLhs()
	if grd.Pruned {
		stats.Complete = false
	}
	return nil
}

// replay hands the hook the levels the validator has not reached, straight
// from the final tree after the pass over all pairs. Every candidate left
// is then a minimal FD, so validating a level would confirm exactly the
// FDs replay hands over; the levels below from already hold only valid
// FDs, which induction never removes. It walks the levels as
// Validator.Run does, up to the tree's LHS bound and stopping at the
// first empty level, and passes each level's FDs in node order with RHSs
// ascending. It reports false when the hook cut the run.
func replay(tree *fdtree.Tree, from int, hook func(level int, valid []fd.FD) bool) bool {
	for d := from; d <= tree.MaxLhs(); d++ {
		level := tree.GetLevel(d)
		if len(level) == 0 {
			break
		}
		var valid []fd.FD
		for _, nd := range level {
			nd.RhsFds().ForEach(func(rhs int) bool {
				valid = append(valid, fd.FD{Lhs: nd.Lhs.Clone(), Rhs: rhs})
				return true
			})
		}
		if !hook(d, valid) {
			return false
		}
	}
	return true
}

// done records the result size, emits the closing Done event, and returns
// the run's Stats.
func (s *session) done(results int) *Stats {
	s.stats.FDCount = results
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	trace.Emit(s.obs, trace.Done{FDs: results, Duration: time.Since(s.start)})
	return s.stats
}

// interrupted wraps a context error into the engine's error contract;
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) keep working on the result.
func interrupted(err error) error {
	return fmt.Errorf("hyfd: discovery interrupted: %w", err)
}
