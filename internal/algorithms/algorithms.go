// Package algorithms hosts the seven state-of-the-art FD discovery
// baselines the HyFD paper evaluates against (§2, §10): the lattice
// traversal family (TANE, FUN, FD_Mine, DFD), the difference-/agree-set
// family (Dep-Miner, FastFDs) and the dependency induction family (FDEP).
// Each lives in its own subpackage and implements the same contract:
// discover all minimal, non-trivial FDs of a prepared Dataset, honoring the
// caller's context (cancellation checkpoints sit inside every long-running
// loop) and the shared Config.
//
// All baselines consume the immutable dataset.Dataset artifact instead of
// re-running preprocessing themselves: the shared PLIs and compressed
// records are read-only, and per-run mutable state (partition caches,
// intersectors) is created fresh inside every Discover call, so concurrent
// runs over one Dataset are race-clean. Callers holding only a raw relation
// prepare it first with dataset.Prepare.
package algorithms

import (
	"context"
	"fmt"

	"hyfd/internal/dataset"
	"hyfd/internal/fd"
)

// Config carries the cross-algorithm discovery parameters. The zero value
// selects unbounded LHS sizes. Null semantics come from the Dataset: the
// PLIs were built under them.
type Config struct {
	// MaxLhsSize bounds result LHS cardinality (0 = unbounded). The result
	// is then exactly the minimal FDs with |LHS| ≤ MaxLhsSize: a truncation
	// of the complete result, never an approximation of it.
	MaxLhsSize int
}

// Algorithm is the common contract of all FD discovery implementations.
// Implementations are stateless values: all per-run state lives inside
// Discover, so one Algorithm instance may serve concurrent runs.
type Algorithm interface {
	// Name returns the algorithm's canonical name as used in the paper.
	Name() string
	// Discover returns all minimal, non-trivial FDs of the prepared
	// dataset, subject to cfg. The dataset's PLIs and records are shared
	// read-only state and must not be mutated. Implementations check ctx
	// at their cancellation checkpoints and return an error wrapping
	// ctx.Err() promptly once the context is canceled or its deadline
	// passes.
	Discover(ctx context.Context, ds *dataset.Dataset, cfg Config) (*fd.Set, error)
}

// Canceled converts a context cancellation into the error contract of
// Algorithm.Discover: nil while the context is live, otherwise an error
// wrapping ctx.Err(). Baselines call it at every checkpoint.
func Canceled(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: discovery interrupted: %w", name, err)
	}
	return nil
}

// Truncate returns the subset of the FDs whose LHS has at most max
// attributes; max <= 0 returns the set unchanged. Minimal FDs within the
// bound are unaffected by dropping larger ones, so the truncation is
// complete up to max.
func Truncate(set *fd.Set, max int) *fd.Set {
	if max <= 0 {
		return set
	}
	out := fd.NewSet(set.Universe())
	for _, f := range set.All() {
		if f.Lhs.Cardinality() <= max {
			out.Add(f)
		}
	}
	return out
}
