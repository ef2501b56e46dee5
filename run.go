package hyfd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hyfd/internal/afd"
	"hyfd/internal/algorithms"
	"hyfd/internal/core"
	"hyfd/internal/fd"
	"hyfd/internal/incremental"
	"hyfd/internal/metrics"
	"hyfd/internal/trace"
	"hyfd/internal/ucc"
)

// Mode selects the discovery workload of a Run request: exact functional
// dependencies, approximate functional dependencies (g3 error), unique
// column combinations, ranked top-k FD discovery, or incremental FD
// maintenance across dataset snapshots.
type Mode string

// The five discovery workloads.
const (
	ModeFD          Mode = "fd"
	ModeAFD         Mode = "afd"
	ModeUCC         Mode = "ucc"
	ModeRanked      Mode = "ranked"
	ModeIncremental Mode = "incremental"
)

// ErrUnknownMode is returned (wrapped) by Run and ParseMode when the mode
// string names none of the workloads; test with errors.Is.
var ErrUnknownMode = errors.New("unknown mode")

// Modes lists the valid mode names.
func Modes() []string {
	return []string{string(ModeFD), string(ModeAFD), string(ModeUCC), string(ModeRanked), string(ModeIncremental)}
}

// ParseMode normalizes a mode string ("" and "fd" are exact FD discovery;
// matching is case-insensitive). Unknown strings return an error wrapping
// ErrUnknownMode.
func ParseMode(s string) (Mode, error) {
	switch Mode(strings.ToLower(s)) {
	case "", ModeFD:
		return ModeFD, nil
	case ModeAFD:
		return ModeAFD, nil
	case ModeUCC:
		return ModeUCC, nil
	case ModeRanked:
		return ModeRanked, nil
	case ModeIncremental:
		return ModeIncremental, nil
	}
	return "", fmt.Errorf("hyfd: %w %q (available: %s)", ErrUnknownMode, s, strings.Join(Modes(), ", "))
}

// Request is the single request-struct entry point's input: one discovery
// job, fully described by data. It is the in-process twin of the hyfdd
// server's JSON JobRequest — every JSON field maps onto exactly one field
// here.
type Request struct {
	// Dataset is the prepared input (see Prepare). Exactly one of Dataset
	// and Relation must be set; a Dataset makes the run warm (preprocessing
	// already paid), and its baked-in null semantics apply regardless of
	// Options.NullSemantics.
	Dataset *Dataset
	// Relation is the raw input; Run preprocesses it first (a cold run).
	Relation *Relation
	// Algorithm names the discovery algorithm for ModeFD ("" = HyFD; see
	// Algorithms for the baselines). Modes afd and ucc have a single
	// built-in strategy: any non-empty Algorithm is rejected there with an
	// error wrapping ErrUnknownAlgorithm.
	Algorithm string
	// Mode selects the workload ("" = ModeFD).
	Mode Mode
	// MaxError is ModeAFD's g3 threshold ε ∈ [0,1); 0 reproduces exact
	// discovery. Ignored by the other modes.
	MaxError float64
	// TopK is ModeRanked's result budget: the run returns the k best-scoring
	// FDs and terminates as soon as that prefix is provably stable. 0 ranks
	// the complete cover. Ignored by the other modes.
	TopK int
	// MinScore is ModeRanked's score floor: results scoring below it are
	// dropped, and the run stops once no remaining candidate can reach it.
	// 0 disables the floor. Ignored by the other modes.
	MinScore float64
	// Delta is ModeIncremental's update batch, applied to Dataset (which
	// must be set; Relation is rejected) to advance the snapshot chain.
	Delta *Delta
	// Base is ModeIncremental's starting point: the exact minimal FD cover
	// of Dataset, typically the Set of a previous ModeFD or ModeIncremental
	// result over that snapshot.
	Base *FDSet
	// Options carries the per-run tuning shared by all modes: MaxLhsSize
	// bounds LHS/UCC sizes everywhere; Threads, EfficiencyThreshold,
	// MemoryBudgetBytes, Observer, and Metrics apply to the HyFD engine.
	// A cold run of a baseline, ModeAFD, or ModeUCC prepares its Relation
	// with Threads, Observer, and Metrics, as Prepare does; the discovery
	// after that ignores them.
	Options Options
}

// Run executes one discovery request under the given context; it is the
// package's only discovery entry point. The context is honored in every
// mode: cancellation or a deadline aborts the run promptly with an error
// wrapping ctx.Err(). A nil ctx is treated as context.Background().
//
// The result carries FDs/Set (ModeFD), AFDs (ModeAFD), UCCs (ModeUCC),
// Ranked (ModeRanked), or Set and Dataset (ModeIncremental), plus Stats in
// every mode. Results are bit-for-bit deterministic for every thread count,
// and a warm run (Request.Dataset) returns results identical to a cold run
// (Request.Relation) on the same data.
func Run(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		//hyfdvet:allow ctxflow — documented nil-ctx defaulting at the package's only entry point
		ctx = context.Background()
	}
	mode, err := ParseMode(string(req.Mode))
	if err != nil {
		return nil, err
	}
	if req.Dataset == nil && req.Relation == nil {
		return nil, errors.New("hyfd: request needs a Dataset or a Relation")
	}
	if req.Dataset != nil && req.Relation != nil {
		return nil, errors.New("hyfd: request must set exactly one of Dataset and Relation")
	}
	switch mode {
	case ModeFD:
		return runFD(ctx, req)
	case ModeAFD:
		return runAFD(ctx, req)
	case ModeRanked:
		return runRanked(ctx, req)
	case ModeIncremental:
		return runIncremental(ctx, req)
	default:
		return runUCC(ctx, req)
	}
}

// runIncremental applies the request's Delta to the prepared Dataset and
// maintains the Base cover across the snapshot advance: a batch with deletes
// re-runs HyFD on the rebuilt snapshot with Options.Threads workers, and an
// insert-only batch induces the inserted records' agree sets into the Base
// cover through HyFD's inductor. The maintained Set (and the FD digest
// derived from it) is byte-identical to a cold full run over the new
// snapshot, at every thread count; Result.Dataset carries the new snapshot
// for the next increment.
func runIncremental(ctx context.Context, req Request) (*Result, error) {
	if req.Algorithm != "" {
		return nil, fmt.Errorf("hyfd: %w %q (mode %q has a single built-in strategy; leave Algorithm empty)",
			ErrUnknownAlgorithm, req.Algorithm, ModeIncremental)
	}
	if req.Dataset == nil {
		return nil, errors.New("hyfd: ModeIncremental needs a prepared Dataset (set Request.Dataset, not Relation)")
	}
	if req.Delta == nil {
		return nil, errors.New("hyfd: ModeIncremental needs Request.Delta")
	}
	if req.Base == nil {
		return nil, errors.New("hyfd: ModeIncremental needs Request.Base (the snapshot's exact FD cover)")
	}
	if req.Base.Universe() != req.Dataset.NumCols() {
		return nil, fmt.Errorf("hyfd: ModeIncremental needs Request.Base over the Dataset's %d columns (got a cover over %d)",
			req.Dataset.NumCols(), req.Base.Universe())
	}
	if req.Options.MaxLhsSize > 0 {
		// A truncated base cover does not determine the truncated cover of
		// the next snapshot: newly-minimal FDs can descend from candidates
		// beyond the bound. Maintenance therefore requires complete covers.
		return nil, errors.New("hyfd: ModeIncremental requires an unbounded cover (Options.MaxLhsSize must be 0)")
	}
	opts := req.Options
	observer := runObserver(opts.Metrics, opts.Observer)
	snap, err := req.Dataset.Apply(ctx, *req.Delta)
	if err != nil {
		return nil, err
	}
	prov := snap.Provenance()
	trace.Emit(observer, trace.DeltaApplied{
		Version:     snap.Version(),
		Inserts:     prov.Inserts,
		Deletes:     prov.Deletes,
		Rows:        snap.NumRows(),
		SharedAttrs: prov.SharedAttrs,
		Duration:    snap.PreprocessingTime(),
	})
	set, istats, err := incremental.Maintain(ctx, snap, req.Base, incremental.Config{Threads: opts.Threads, Observer: observer})
	if err != nil {
		return nil, err
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = snap.Threads()
	}
	stats := &Stats{
		Rows:              snap.NumRows(),
		Cols:              snap.NumCols(),
		FDCount:           set.Size(),
		MaxLhs:            snap.NumCols(),
		Complete:          true,
		Warm:              true,
		Threads:           threads,
		Validations:       int64(istats.Checks),
		PreprocessingTime: snap.PreprocessingTime(),
		TotalTime:         snap.PreprocessingTime() + istats.Duration,
	}
	return &Result{FDs: set.Sorted(), Set: set, Dataset: snap, Stats: stats}, nil
}

// runObserver composes the observer one run reports through: the metrics
// bridge of reg, when there is a registry, then obs. It is the single place
// the bridge joins the event stream: fd, ranked and incremental runs and
// Prepare all build their observer here, one per run, since a bridge serves
// one stream at a time.
func runObserver(reg *MetricsRegistry, obs Observer) Observer {
	return trace.Multi(metrics.NewEngineMetrics(reg).Observer(), obs)
}

// engineConfig maps the request options onto the HyFD engine's
// configuration, for fd and ranked mode.
func engineConfig(opts Options) core.Config {
	return core.Config{
		NullSemantics:       opts.NullSemantics,
		EfficiencyThreshold: opts.EfficiencyThreshold,
		Threads:             opts.Threads,
		MaxLhsSize:          opts.MaxLhsSize,
		MemoryBudgetBytes:   opts.MemoryBudgetBytes,
		Observer:            runObserver(opts.Metrics, opts.Observer),
	}
}

// runFD dispatches exact FD discovery: the HyFD engine or a named baseline,
// cold (Relation) or warm (Dataset).
func runFD(ctx context.Context, req Request) (*Result, error) {
	opts := req.Options
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = AlgorithmHyFD
	}
	if algorithm == AlgorithmHyFD {
		cfg := engineConfig(opts)
		var (
			set   *FDSet
			stats *Stats
			err   error
		)
		if req.Dataset != nil {
			set, stats, err = core.DiscoverDataset(ctx, req.Dataset, cfg)
		} else {
			set, stats, err = core.Discover(ctx, req.Relation, cfg)
		}
		if err != nil {
			return nil, err
		}
		return &Result{FDs: set.Sorted(), Set: set, Stats: stats}, nil
	}
	alg, ok := registry[algorithm]
	if !ok {
		return nil, fmt.Errorf("hyfd: %w %q (available: %v)", ErrUnknownAlgorithm, algorithm, Algorithms())
	}
	start := time.Now()
	ds, warm, err := requestDataset(ctx, req)
	if err != nil {
		return nil, err
	}
	set, err := alg.Discover(ctx, ds, algorithms.Config{MaxLhsSize: opts.MaxLhsSize})
	if err != nil {
		return nil, err
	}
	// Most baselines add their FDs out of canonical order, which leaves the
	// set holding them behind a key map; rewrapping its sorted cover holds
	// it once, and shares an already canonical one without a copy.
	set = fd.NewCanonicalSet(set.Universe(), set.Sorted())
	stats := auxiliaryStats(ds, opts.MaxLhsSize, warm, start)
	stats.FDCount = set.Size()
	return &Result{FDs: set.Sorted(), Set: set, Stats: stats}, nil
}

// runRanked dispatches ranked top-k FD discovery. Only the HyFD engine
// supports the ranked cut, so a non-empty Algorithm is rejected. The result
// carries Ranked (score order, ranks assigned) plus Stats; Stats.Complete
// is false when the run cut the lattice early — the results are still the
// exact top-k of the full cover.
func runRanked(ctx context.Context, req Request) (*Result, error) {
	if req.Algorithm != "" {
		return nil, fmt.Errorf("hyfd: %w %q (mode %q has a single built-in strategy; leave Algorithm empty)",
			ErrUnknownAlgorithm, req.Algorithm, ModeRanked)
	}
	if req.TopK < 0 {
		return nil, fmt.Errorf("hyfd: invalid TopK %d: must be >= 0", req.TopK)
	}
	if req.MinScore < 0 {
		return nil, fmt.Errorf("hyfd: invalid MinScore %g: must be >= 0", req.MinScore)
	}
	cfg := engineConfig(req.Options)
	var (
		ranked []RankedFD
		stats  *Stats
		err    error
	)
	if req.Dataset != nil {
		ranked, stats, err = core.DiscoverRankedDataset(ctx, req.Dataset, cfg, req.TopK, req.MinScore)
	} else {
		ranked, stats, err = core.DiscoverRanked(ctx, req.Relation, cfg, req.TopK, req.MinScore)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Ranked: ranked, Stats: stats}, nil
}

// runAFD dispatches approximate FD discovery (g3 ≤ Request.MaxError).
func runAFD(ctx context.Context, req Request) (*Result, error) {
	if req.Algorithm != "" {
		return nil, fmt.Errorf("hyfd: %w %q (mode %q has a single built-in strategy; leave Algorithm empty)",
			ErrUnknownAlgorithm, req.Algorithm, ModeAFD)
	}
	start := time.Now()
	ds, warm, err := requestDataset(ctx, req)
	if err != nil {
		return nil, err
	}
	afds, err := afd.Discover(ctx, ds, afd.Options{
		MaxError: req.MaxError,
		MaxLhs:   req.Options.MaxLhsSize,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		AFDs:  afds,
		Stats: auxiliaryStats(ds, req.Options.MaxLhsSize, warm, start),
	}, nil
}

// runUCC dispatches unique column combination discovery.
func runUCC(ctx context.Context, req Request) (*Result, error) {
	if req.Algorithm != "" {
		return nil, fmt.Errorf("hyfd: %w %q (mode %q has a single built-in strategy; leave Algorithm empty)",
			ErrUnknownAlgorithm, req.Algorithm, ModeUCC)
	}
	start := time.Now()
	ds, warm, err := requestDataset(ctx, req)
	if err != nil {
		return nil, err
	}
	uccs, err := ucc.Discover(ctx, ds, req.Options.MaxLhsSize)
	if err != nil {
		return nil, err
	}
	return &Result{
		UCCs:  uccs,
		Stats: auxiliaryStats(ds, req.Options.MaxLhsSize, warm, start),
	}, nil
}

// requestDataset resolves the request's input to a prepared Dataset,
// preparing the Relation on the spot for cold runs; warm reports whether the
// caller supplied the Dataset (and so excluded preprocessing from the run).
func requestDataset(ctx context.Context, req Request) (*Dataset, bool, error) {
	if req.Dataset != nil {
		return req.Dataset, true, nil
	}
	ds, err := Prepare(ctx, req.Relation, PrepareOptions{
		NullSemantics: req.Options.NullSemantics,
		Threads:       req.Options.Threads,
		Observer:      req.Options.Observer,
		Metrics:       req.Options.Metrics,
	})
	if err != nil {
		return nil, false, err
	}
	return ds, false, nil
}

// auxiliaryStats assembles the Stats of a baseline, afd, or ucc run that
// started at start: the dimensional and outcome fields, without the HyFD
// engine's per-phase telemetry. A cold run's TotalTime includes its
// PreprocessingTime.
func auxiliaryStats(ds *Dataset, maxLhsSize int, warm bool, start time.Time) *Stats {
	stats := &Stats{
		Rows:      ds.NumRows(),
		Cols:      ds.NumCols(),
		MaxLhs:    ds.NumCols(),
		Complete:  true,
		Warm:      warm,
		TotalTime: time.Since(start),
	}
	if !warm {
		stats.PreprocessingTime = ds.PreprocessingTime()
	}
	if maxLhsSize > 0 {
		stats.MaxLhs = maxLhsSize
		stats.Complete = false
	}
	return stats
}
