// Package fdep implements the FDEP algorithm of Flach & Savnik (1999), the
// dependency induction baseline of the HyFD paper: compare every record
// pair to build the complete negative cover, then specialize the positive
// cover (an FDTree) with every observed non-FD. HyFD's Phase 1 is a
// sampling variant of exactly this procedure, so the implementation shares
// the Inductor substrate — only the exhaustive O(n²) pair enumeration is
// FDEP-specific.
package fdep

import (
	"context"

	"hyfd/internal/algorithms"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/inductor"
	"hyfd/internal/pli"
)

// cancelStride bounds how many record pairs the exhaustive comparison may
// process between two context checks.
const cancelStride = 4096

// FDEP discovers FDs via exhaustive pairwise comparison and induction.
type FDEP struct{}

// New returns an FDEP instance.
func New() *FDEP { return &FDEP{} }

// Name implements algorithms.Algorithm.
func (*FDEP) Name() string { return "Fdep" }

// Discover implements algorithms.Algorithm. The O(n²) pair enumeration
// checks the context every cancelStride pairs; a MaxLhsSize bound is pushed
// into the positive cover's FDTree so specialization never materializes
// LHSs beyond the bound (the same mechanism HyFD's Guardian uses).
func (*FDEP) Discover(ctx context.Context, ds *dataset.Dataset, cfg algorithms.Config) (*fd.Set, error) {
	m := ds.NumCols()
	if m == 0 {
		return fd.NewSet(0), nil
	}
	// The Dataset's compressed records drive the comparison: comparing
	// cluster ids is cheaper than comparing strings (the same optimization
	// HyFD applies, §10.3).
	ix := ds.Index()
	seen := make(map[string]struct{})
	var nonFds []bitset.Set
	var pairs int64
	nextCheck := int64(cancelStride)
	for i := 0; i < ix.NumRows; i++ {
		ri := ix.Row(i)
		if pairs >= nextCheck {
			if err := algorithms.Canceled(ctx, "Fdep"); err != nil {
				return nil, err
			}
			nextCheck = pairs + cancelStride
		}
		pairs += int64(ix.NumRows - i - 1)
		for j := i + 1; j < ix.NumRows; j++ {
			rj := ix.Row(j)
			agree := bitset.New(m)
			for a := 0; a < m; a++ {
				if ri[a] != pli.Singleton && ri[a] == rj[a] {
					agree.Set(a)
				}
			}
			key := agree.Key()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			nonFds = append(nonFds, agree)
		}
	}
	if err := algorithms.Canceled(ctx, "Fdep"); err != nil {
		return nil, err
	}
	ind := inductor.New(m)
	if cfg.MaxLhsSize > 0 {
		ind.Tree().SetMaxLhs(cfg.MaxLhsSize)
	}
	ind.Update(nonFds)
	return ind.Tree().FDs(), nil
}
