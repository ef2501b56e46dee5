// Package dataset provides the immutable preprocessing artifact shared by
// every discovery entry point: the relation handle, the sorted per-attribute
// PLIs, the PLI-compressed record matrix, the null semantics they were built
// under, and the resolved worker count. The paper's Algorithm 1 treats plis
// and pliRecords as fixed inputs that the Sampler and Validator merely read;
// a Dataset makes that contract explicit so one preprocessing pass can be
// amortized across many runs — HyFD, the lattice baselines, approximate-FD
// and UCC discovery, and repeated benchmark repetitions alike.
//
// # Immutability contract
//
// A Dataset is immutable after Prepare returns: no method mutates it, and
// every accessor returns either a value copy or a reference into shared
// read-only state. Callers must never write through Plis(), Index(), or any
// partition derived from them — the hyfdvet bitsetalias analyzer enforces
// this across the repository. Because all shared state is reached only
// through reads, any number of goroutines may run Discover over one Dataset
// concurrently; per-run mutable state (partition caches, samplers,
// validators) is created fresh per run, e.g. via NewCache.
package dataset

import (
	"context"
	"errors"
	"runtime"
	"time"

	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

// Options configures Prepare. The zero value selects null=null semantics
// and all CPUs.
type Options struct {
	// NullSemantics selects ⊥=⊥ (default) or ⊥≠⊥ comparisons. The choice is
	// baked into the PLIs, so every run over the Dataset inherits it.
	NullSemantics relation.NullSemantics
	// Threads is the worker count for PLI construction and record
	// inversion; 1 builds sequentially, any value <= 0 picks
	// runtime.GOMAXPROCS(0). The resolved count is recorded on the Dataset
	// and becomes the default worker count of runs that consume it.
	// Preprocessing is bit-for-bit deterministic for every thread count.
	Threads int
	// OnBuild, when non-nil, receives every attribute's finished PLI and
	// its build latency, exactly as pli.Options.OnBuild does: with more
	// than one thread it is called concurrently from worker goroutines.
	OnBuild func(p *pli.PLI, d time.Duration)
}

// Dataset is an immutable, goroutine-safe preprocessing artifact produced by
// Prepare. All fields are unexported; consumers go through the read-only
// accessors.
type Dataset struct {
	rel      *relation.Relation
	ns       relation.NullSemantics
	threads  int
	ix       *pli.Index
	prepTime time.Duration
	version  int
	prov     *Provenance
}

// Prepare runs Algorithm 1 (PLI construction + record inversion) once over
// the relation and returns the resulting Dataset. The context is checked
// before and after the build; a canceled context returns ctx.Err() wrapped.
// A nil ctx is treated as context.Background().
func Prepare(ctx context.Context, rel *relation.Relation, opts Options) (*Dataset, error) {
	if ctx == nil {
		//hyfdvet:allow ctxflow — documented nil-ctx defaulting at the public preparation boundary
		ctx = context.Background()
	}
	if rel == nil {
		return nil, errors.New("hyfd: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	start := time.Now()
	ix := pli.NewIndexWith(rel, opts.NullSemantics, pli.Options{
		Threads: threads,
		OnBuild: opts.OnBuild,
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Dataset{
		rel:     rel,
		ns:      opts.NullSemantics,
		threads: threads,
		ix:      ix,
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		prepTime: time.Since(start),
		version:  1,
	}, nil
}

// Relation returns the underlying relation. Callers must treat it as
// read-only: the PLIs were built from its current contents, and mutating it
// would silently desynchronize them.
func (d *Dataset) Relation() *relation.Relation { return d.rel }

// NullSemantics returns the null semantics the PLIs were built under. Runs
// over the Dataset always use this value; a conflicting per-run option would
// disagree with the prebuilt PLIs and is therefore ignored by consumers.
func (d *Dataset) NullSemantics() relation.NullSemantics { return d.ns }

// Threads returns the resolved worker count preprocessing ran with (the
// configured value, or GOMAXPROCS when that was <= 0). Consumers use it as
// the default worker count for runs that don't override it.
func (d *Dataset) Threads() int { return d.threads }

// Index returns the shared PLI index (per-attribute PLIs, compressed
// records, distinctness order). It is read-only shared state: callers must
// not write through it.
func (d *Dataset) Index() *pli.Index { return d.ix }

// Plis returns the per-attribute PLIs in attribute order. The returned slice
// is a fresh copy, so reordering or truncating it cannot corrupt the shared
// index; the PLIs it points to remain read-only shared state and callers must
// not write through them (the hyfdvet bitsetalias analyzer enforces this).
func (d *Dataset) Plis() []*pli.PLI {
	out := make([]*pli.PLI, len(d.ix.Plis))
	copy(out, d.ix.Plis)
	return out
}

// NumRows returns the number of records of the prepared relation.
func (d *Dataset) NumRows() int { return d.ix.NumRows }

// NumCols returns the number of attributes of the prepared relation.
func (d *Dataset) NumCols() int { return d.ix.NumCols }

// NewCache returns a fresh partition cache over the shared PLIs and
// records. A pli.Cache is not safe for concurrent use and memoizes mutable
// per-run state, so every run must create its own; the PLIs and records
// themselves stay read-only (refinement allocates new partitions).
func (d *Dataset) NewCache() *pli.Cache {
	return pli.NewCache(d.ix)
}

// PreprocessingTime returns the wall-clock time Prepare spent building the
// PLIs and compressed records (or, for a delta snapshot, the time Apply spent
// extending them). Warm runs over the Dataset report ~zero preprocessing time
// of their own; this value is the amortized cost.
func (d *Dataset) PreprocessingTime() time.Duration { return d.prepTime }

// Version returns the snapshot version: 1 for a freshly Prepared dataset,
// and parent+1 for every snapshot produced by Apply.
func (d *Dataset) Version() int { return d.version }

// Provenance returns how this snapshot was derived from its parent, or nil
// for a root snapshot produced by Prepare. The returned value is read-only
// shared state: callers must not mutate it.
func (d *Dataset) Provenance() *Provenance { return d.prov }
