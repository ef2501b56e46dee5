package hyfd_test

import (
	"context"
	"reflect"
	"testing"

	"hyfd"
)

// TestDiscoverThreadCountDeterminism: the engine's determinism contract —
// the same relation yields the same FD list (same order, since sets render
// canonically) at every thread count, under both null semantics. Threads 0
// resolves to all CPUs and must behave like any explicit count.
func TestDiscoverThreadCountDeterminism(t *testing.T) {
	rels := map[string]*hyfd.Relation{
		"synthetic": syntheticRelation(400, 8, 3, 17),
		"meta":      metamorphicRelation(80, 99),
	}
	for name, rel := range rels {
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			base, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{NullSemantics: ns, Threads: 1}})
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{0, 2, 8} {
				res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{NullSemantics: ns, Threads: threads}})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.FDs, base.FDs) {
					t.Fatalf("%s ns=%v: threads=%d FD list differs from sequential:\nmissing: %v\nextra: %v",
						name, ns, threads, base.Set.Diff(res.Set), res.Set.Diff(base.Set))
				}
				// The work done must also be identical, not just the
				// result: same comparisons, validations, phase switches.
				if res.Stats.Comparisons != base.Stats.Comparisons ||
					res.Stats.Validations != base.Stats.Validations ||
					res.Stats.PhaseSwitches != base.Stats.PhaseSwitches ||
					res.Stats.Observations != base.Stats.Observations {
					t.Fatalf("%s ns=%v threads=%d: work differs from sequential:\n got %+v\nwant %+v",
						name, ns, threads, res.Stats, base.Stats)
				}
			}
		}
	}
}

// TestRankedThreadCountDeterminism: the ranked mode inherits the engine's
// determinism contract — the full ranked list (FDs, scores, rank order) is
// byte-identical at every thread count and across repeated runs, for both a
// bounded and an unbounded k. Emitted mid-run prefixes are covered too:
// CompleteLevel only ever extends the stream, so list equality implies
// stream equality.
func TestRankedThreadCountDeterminism(t *testing.T) {
	rels := map[string]*hyfd.Relation{
		"synthetic": syntheticRelation(400, 8, 3, 17),
		"meta":      metamorphicRelation(80, 99),
	}
	for name, rel := range rels {
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			for _, k := range []int{5, 0} {
				run := func(threads int) []hyfd.RankedFD {
					res, err := hyfd.Run(context.Background(), hyfd.Request{
						Relation: rel,
						Mode:     hyfd.ModeRanked,
						TopK:     k,
						Options:  hyfd.Options{NullSemantics: ns, Threads: threads},
					})
					if err != nil {
						t.Fatalf("%s ns=%v k=%d threads=%d: %v", name, ns, k, threads, err)
					}
					return res.Ranked
				}
				base := run(1)
				if repeat := run(1); !reflect.DeepEqual(repeat, base) {
					t.Fatalf("%s ns=%v k=%d: repeated single-threaded runs differ:\n%v\n%v",
						name, ns, k, base, repeat)
				}
				for _, threads := range []int{0, 2, 8} {
					if got := run(threads); !reflect.DeepEqual(got, base) {
						t.Fatalf("%s ns=%v k=%d: threads=%d ranked list differs from sequential:\ngot:  %v\nwant: %v",
							name, ns, k, threads, got, base)
					}
				}
			}
		}
	}
}

// TestDiscoverThreadsResolvedInStats: Stats.Threads reports the resolved
// worker count — the configured value for positive inputs, GOMAXPROCS for
// zero and negative ones (which must agree with each other).
func TestDiscoverThreadsResolvedInStats(t *testing.T) {
	rel := metamorphicRelation(30, 7)
	explicit, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Stats.Threads != 3 {
		t.Fatalf("Stats.Threads = %d, want 3", explicit.Stats.Threads)
	}
	zero, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 0}})
	if err != nil {
		t.Fatal(err)
	}
	negative, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: -4}})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Stats.Threads < 1 || zero.Stats.Threads != negative.Stats.Threads {
		t.Fatalf("resolved threads: zero=%d negative=%d, want equal and >= 1",
			zero.Stats.Threads, negative.Stats.Threads)
	}
}
