package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"hyfd/internal/dataset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/rank"
	"hyfd/internal/relation"
	"hyfd/internal/trace"
)

// TestDiscoverRankedAllPairs: when sampling compares every record pair,
// ranked mode leaves the loop as fd mode does and replays the final tree
// into its tracker. The ranking must still equal the brute-force cover
// rescored offline, and the any-time stream must still be its prefix. On
// bridges and echocardiogram the pass over all pairs comes in round 1, so
// nothing is validated; on the 3 × 6 table it comes in round 2, after
// level 0, so the replay resumes at level 1.
func TestDiscoverRankedAllPairs(t *testing.T) {
	rels := []*relation.Relation{roundTwoRelation()}
	for _, name := range []string{"bridges", "echocardiogram"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, d.Generate(1))
	}
	ctx := context.Background()
	for _, rel := range rels {
		ds, err := dataset.Prepare(ctx, rel, dataset.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		scorer := rank.NewScorer(ds.Index())
		cover := fd.BruteForce(rel, relation.NullEqualsNull).All()
		median := rank.Rank(cover, scorer, 0, 0)[len(cover)/2].Score
		for _, cut := range []struct {
			k        int
			minScore float64
		}{{1, 0}, {3, 0}, {10, 0}, {0, 0}, {0, median}} {
			want := rank.Rank(cover, scorer, cut.k, cut.minScore)
			for _, threads := range []int{1, 2} {
				where := fmt.Sprintf("%s k=%d min-score=%g threads=%d", rel.Name, cut.k, cut.minScore, threads)
				var stream []trace.RankedResult
				got, stats, err := DiscoverRanked(ctx, rel, Config{
					Threads: threads,
					Observer: trace.ObserverFunc(func(e trace.Event) {
						if r, ok := e.(trace.RankedResult); ok {
							stream = append(stream, r)
						}
					}),
				}, cut.k, cut.minScore)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: got %d ranked, oracle has %d", where, len(got), len(want))
				}
				for i, g := range got {
					w := want[i]
					if g.Rank != w.Rank || g.Score != w.Score || g.FD.Rhs != w.FD.Rhs || !g.FD.Lhs.Equal(w.FD.Lhs) {
						t.Fatalf("%s: rank %d is %+v, want %+v", where, i+1, g, w)
					}
				}
				if len(stream) > len(got) {
					t.Fatalf("%s: stream has %d results, run returned %d", where, len(stream), len(got))
				}
				for i, r := range stream {
					g := got[i]
					if r.Rank != g.Rank || r.Score != g.Score || r.Rhs != g.FD.Rhs || !slices.Equal(r.Lhs, g.FD.Lhs.Indices()) {
						t.Fatalf("%s: streamed result %d is %+v, returned %+v", where, i+1, r, g)
					}
				}
				// Only the 3 × 6 table validates a level before the pass.
				var validations int64
				if rel.Name == "round2" {
					validations = 1
				}
				if !stats.AllPairs || stats.Validations != validations {
					t.Fatalf("%s: stats %+v, want all pairs and %d validations", where, stats, validations)
				}
			}
		}
	}
}
