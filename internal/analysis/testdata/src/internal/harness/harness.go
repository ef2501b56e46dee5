// Package harness seeds the bitsetalias shared-state rule from the
// consumer side: a prepared Dataset and its PLIs are shared read-only
// between concurrent runs, so writes through their accessor results are
// findings here.
package harness

import (
	"hyfd/internal/dataset"
	"hyfd/internal/pli"
)

// MutateShared writes through accessor results flowing from the shared
// artifacts.
func MutateShared(ds *dataset.Dataset) {
	ds.Plis()[0].Clusters = nil  // want "bitsetalias: write through a pli.PLI accessor result"
	ds.Index().NumRows = 0       // want "bitsetalias: write through a pli.Index accessor result"
	ds.Index().Records[0][1] = 5 // want "bitsetalias: write through a pli.Index accessor result"
	ds.Index().Row(0)[1] = 5     // want "bitsetalias: write through a pli.Index accessor result"
	ds.Index().NumRows++         // want "bitsetalias: write through a pli.Index accessor result"
}

// Chain hands out the snapshot version chain the way a registry would:
// the returned slice aliases shared bookkeeping, and the snapshots are
// shared artifacts themselves.
func Chain(ds *dataset.Dataset) []*dataset.Dataset { return []*dataset.Dataset{ds} }

// Snapshot hands out one shared snapshot.
func Snapshot(ds *dataset.Dataset) *dataset.Dataset { return ds }

// MutateSnapshots writes through accessor results that flow from the
// Dataset artifact itself — the delta chain's snapshots are immutable once
// built, so both the chain slots and the pointed-to snapshots are findings.
func MutateSnapshots(ds *dataset.Dataset) {
	Chain(ds)[0] = nil                // want "bitsetalias: write through a dataset.Dataset accessor result"
	*Snapshot(ds) = dataset.Dataset{} // want "bitsetalias: write through a dataset.Dataset accessor result"
	Snapshot(ds).Index().NumRows = 0  // want "bitsetalias: write through a pli.Index accessor result"
}

// WalkChain reads the chain without writing through it: no finding.
func WalkChain(ds *dataset.Dataset) int {
	n := 0
	for _, s := range Chain(ds) {
		n += s.Index().NumRows
	}
	return n
}

// ReadShared reads shared state freely and writes only locally built
// artifacts: no finding.
func ReadShared(ds *dataset.Dataset) int {
	total := ds.Index().NumRows
	for _, p := range ds.Plis() {
		total += len(p.Clusters)
	}
	mine := pli.Build(2)
	mine.NumRows = total // a locally built index is the caller's to write
	for _, rec := range mine.Records {
		rec[0] = 1
	}
	own := append([]int32(nil), ds.Index().Row(0)...)
	own[1] = 5 // a copied record is the caller's to write
	return total
}
