// Package dfd implements the DFD algorithm of Abedjan, Schulze & Naumann
// (2014): for each right-hand-side attribute, a depth-first random walk
// over the lattice of candidate left-hand sides classifies nodes as
// dependencies or non-dependencies, descending from dependencies towards
// minimal ones and ascending from non-dependencies towards maximal ones,
// with subset/superset inference avoiding repeated partition work. New
// walk seeds come from the hypergraph duality between maximal
// non-dependencies and minimal dependencies, which also certifies
// completeness. Partitions are computed lazily through a shared cache.
package dfd

import (
	"context"
	"fmt"
	"math/rand"

	"hyfd/internal/algorithms"
	"hyfd/internal/algorithms/hitset"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/pli"
)

// DFD discovers FDs via per-RHS random lattice walks.
type DFD struct {
	seed int64
}

// New returns a DFD instance with a fixed walk seed (runs are
// deterministic for a given seed).
func New(seed int64) *DFD { return &DFD{seed: seed} }

// Name implements algorithms.Algorithm.
func (*DFD) Name() string { return "Dfd" }

// Discover implements algorithms.Algorithm. The context is checked at
// every walk step (each step may cost a partition intersection); a
// MaxLhsSize bound is applied to the finished result, since random walks
// classify lattice nodes in an order a level cutoff cannot bound.
func (d *DFD) Discover(ctx context.Context, ds *dataset.Dataset, cfg algorithms.Config) (*fd.Set, error) {
	m := ds.NumCols()
	out := fd.NewSet(m)
	if m == 0 {
		return out, nil
	}
	n := ds.NumRows()
	plis := ds.Plis()
	cache := ds.NewCache()
	//hyfdvet:allow determinism — fixed-seed rng: DFD's random walk is reproducible by construction
	rng := rand.New(rand.NewSource(d.seed))

	emptyError := 0
	if n > 1 {
		emptyError = n - 1
	}

	for rhs := 0; rhs < m; rhs++ {
		if err := algorithms.Canceled(ctx, "Dfd"); err != nil {
			return nil, err
		}
		// ∅ → rhs: constant column; the search for larger LHSs is moot.
		if pli.PartitionOf(plis[rhs]).Error() == emptyError {
			out.Add(fd.FD{Lhs: bitset.New(m), Rhs: rhs})
			continue
		}
		w := &walker{
			ctx:   ctx,
			m:     m,
			rhs:   rhs,
			cache: cache,
			rng:   rng,
			memo:  make(map[string]bool),
		}
		minDeps, err := w.findMinimalDeps()
		if err != nil {
			return nil, err
		}
		for _, lhs := range minDeps {
			out.Add(fd.FD{Lhs: lhs, Rhs: rhs})
		}
	}
	return algorithms.Truncate(out, cfg.MaxLhsSize), nil
}

// walker runs the lattice walk for one RHS attribute.
type walker struct {
	ctx   context.Context
	m     int
	rhs   int
	cache *pli.Cache
	rng   *rand.Rand

	memo       map[string]bool // exact classifications
	deps       []bitset.Set    // classified dependencies
	nonDeps    []bitset.Set    // classified non-dependencies
	minDeps    []bitset.Set
	maxNonDeps []bitset.Set
}

// isDep classifies lhs → rhs, using subset/superset inference before
// falling back to a partition-error computation.
func (w *walker) isDep(lhs bitset.Set) bool {
	key := lhs.Key()
	if v, ok := w.memo[key]; ok {
		return v
	}
	for _, d := range w.deps {
		if d.IsSubsetOf(lhs) {
			w.memo[key] = true
			return true
		}
	}
	for _, nd := range w.nonDeps {
		if lhs.IsSubsetOf(nd) {
			w.memo[key] = false
			return false
		}
	}
	var v bool
	if lhs.IsEmpty() {
		v = false // constant RHS is handled before the walk
	} else {
		lhsErr := w.cache.Partition(lhs).Error()
		xaErr := w.cache.Partition(lhs.With(w.rhs)).Error()
		v = lhsErr == xaErr
	}
	w.memo[key] = v
	if v {
		w.deps = append(w.deps, lhs)
	} else {
		w.nonDeps = append(w.nonDeps, lhs)
	}
	return v
}

// candidates returns the non-RHS attributes in random order.
func (w *walker) shuffledAttrs() []int {
	attrs := make([]int, 0, w.m-1)
	for a := 0; a < w.m; a++ {
		if a != w.rhs {
			attrs = append(attrs, a)
		}
	}
	//hyfdvet:allow determinism — fixed-seed rng: DFD's random walk is reproducible by construction
	w.rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	return attrs
}

// findMinimalDeps drives walks until the duality check certifies that the
// collected minimal dependencies are complete.
func (w *walker) findMinimalDeps() ([]bitset.Set, error) {
	seeds := make([]bitset.Set, 0, w.m-1)
	for _, a := range w.shuffledAttrs() {
		seeds = append(seeds, bitset.FromIndices(w.m, a))
	}
	for len(seeds) > 0 {
		for _, seed := range seeds {
			if err := w.walk(seed); err != nil {
				return nil, err
			}
		}
		var err error
		if seeds, err = w.nextSeeds(); err != nil {
			return nil, fmt.Errorf("Dfd: discovery interrupted: %w", err)
		}
	}
	return w.minDeps, nil
}

// walk performs one random descent/ascent from the seed, recording a
// minimal dependency or a maximal non-dependency. It always terminates: a
// dependency node only ever moves to dependent subsets (strictly smaller),
// a non-dependency only to non-dependent supersets (strictly larger). Each
// step checks the context, since a single classification may compute
// partition intersections over the full relation.
func (w *walker) walk(node bitset.Set) error {
	for {
		if err := algorithms.Canceled(w.ctx, "Dfd"); err != nil {
			return err
		}
		if w.isDep(node) {
			// Try to descend to a dependent immediate subset.
			next, minimal := w.randomDepSubset(node)
			if minimal {
				w.recordMinDep(node)
				return nil
			}
			node = next
		} else {
			next, maximal := w.randomNonDepSuperset(node)
			if maximal {
				w.recordMaxNonDep(node)
				return nil
			}
			node = next
		}
	}
}

// randomDepSubset returns a random immediate subset that is still a
// dependency, or reports that the node is a minimal dependency.
func (w *walker) randomDepSubset(node bitset.Set) (bitset.Set, bool) {
	attrs := node.Indices()
	//hyfdvet:allow determinism — fixed-seed rng: DFD's random walk is reproducible by construction
	w.rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	for _, a := range attrs {
		sub := node.Without(a)
		if w.isDep(sub) {
			return sub, false
		}
	}
	return bitset.Set{}, true
}

// randomNonDepSuperset returns a random immediate superset that is still a
// non-dependency, or reports that the node is a maximal non-dependency.
func (w *walker) randomNonDepSuperset(node bitset.Set) (bitset.Set, bool) {
	for _, a := range w.shuffledAttrs() {
		if node.Test(a) {
			continue
		}
		sup := node.With(a)
		if !w.isDep(sup) {
			return sup, false
		}
	}
	return bitset.Set{}, true
}

func (w *walker) recordMinDep(node bitset.Set) {
	for _, d := range w.minDeps {
		if d.Equal(node) {
			return
		}
	}
	w.minDeps = append(w.minDeps, node)
}

func (w *walker) recordMaxNonDep(node bitset.Set) {
	for _, d := range w.maxNonDeps {
		if d.Equal(node) {
			return
		}
	}
	w.maxNonDeps = append(w.maxNonDeps, node)
}

// nextSeeds exploits the duality: the minimal transversals of the
// complements of all maximal non-dependencies are exactly the minimal
// dependencies once the maximal non-dependencies are complete. Any
// transversal not yet recorded as a minimal dependency marks unexplored
// lattice territory and becomes a new seed.
func (w *walker) nextSeeds() ([]bitset.Set, error) {
	complements := make([]bitset.Set, len(w.maxNonDeps))
	for i, nd := range w.maxNonDeps {
		complements[i] = nd.Flip().Without(w.rhs)
	}
	candidates, err := hitset.MinimalTransversals(w.ctx, w.m, complements, w.rhs)
	if err != nil {
		return nil, err
	}
	var seeds []bitset.Set
	for _, c := range candidates {
		known := false
		for _, d := range w.minDeps {
			if d.Equal(c) {
				known = true
				break
			}
		}
		if !known {
			seeds = append(seeds, c)
		}
	}
	return seeds, nil
}
