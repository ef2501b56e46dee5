package hyfd_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"hyfd"
)

// TestRunNilContext: Run treats a nil context as context.Background() in
// every mode.
func TestRunNilContext(t *testing.T) {
	rel := syntheticRelation(40, 4, 3, 21)
	ds, err := hyfd.Prepare(context.Background(), rel, hyfd.PrepareOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := hyfd.Run(context.Background(), hyfd.Request{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	delta := hyfd.Delta{Inserts: []hyfd.Row{{"0", "1", "2", "0"}}}
	for _, req := range []hyfd.Request{
		{Relation: rel, Mode: hyfd.ModeFD},
		{Relation: rel, Mode: hyfd.ModeAFD, MaxError: 0.1},
		{Relation: rel, Mode: hyfd.ModeUCC},
		{Relation: rel, Mode: hyfd.ModeRanked, TopK: 3},
		{Dataset: ds, Mode: hyfd.ModeIncremental, Delta: &delta, Base: base.Set},
	} {
		res, err := hyfd.Run(nil, req)
		if err != nil {
			t.Fatalf("mode %s: %v", req.Mode, err)
		}
		if res.Stats == nil {
			t.Fatalf("mode %s: no Stats", req.Mode)
		}
	}
}

// TestRunRequestErrors pins every error Run returns before any work
// starts: no trace event fires, and the sentinel errors stay detectable
// with errors.Is.
func TestRunRequestErrors(t *testing.T) {
	rel := syntheticRelation(10, 3, 2, 22)
	ds, err := hyfd.Prepare(context.Background(), rel, hyfd.PrepareOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	delta := &hyfd.Delta{Inserts: []hyfd.Row{{"0", "0", "0"}}}
	cover := &hyfd.FDSet{}
	coverOver := func(cols int) *hyfd.FDSet {
		res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: syntheticRelation(10, cols, 2, 22)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Set
	}
	for _, tc := range []struct {
		name string
		req  hyfd.Request
		is   error  // nil: any error
		msg  string // "": any message
	}{
		{"no input", hyfd.Request{}, nil, ""},
		{"both inputs", hyfd.Request{Dataset: ds, Relation: rel}, nil, ""},
		{"unknown mode", hyfd.Request{Relation: rel, Mode: "nope"}, hyfd.ErrUnknownMode, ""},
		{"unknown algorithm", hyfd.Request{Relation: rel, Algorithm: "NoSuchAlgo"}, hyfd.ErrUnknownAlgorithm, ""},
		{"algorithm in afd mode", hyfd.Request{Relation: rel, Mode: hyfd.ModeAFD, Algorithm: hyfd.AlgorithmTane}, hyfd.ErrUnknownAlgorithm, ""},
		{"algorithm in ucc mode", hyfd.Request{Relation: rel, Mode: hyfd.ModeUCC, Algorithm: hyfd.AlgorithmTane}, hyfd.ErrUnknownAlgorithm, ""},
		{"algorithm in ranked mode", hyfd.Request{Relation: rel, Mode: hyfd.ModeRanked, Algorithm: hyfd.AlgorithmHyFD}, hyfd.ErrUnknownAlgorithm, ""},
		{"algorithm in incremental mode", hyfd.Request{Dataset: ds, Mode: hyfd.ModeIncremental, Algorithm: hyfd.AlgorithmHyFD, Delta: delta, Base: cover}, hyfd.ErrUnknownAlgorithm, ""},
		{"negative TopK", hyfd.Request{Relation: rel, Mode: hyfd.ModeRanked, TopK: -1}, nil, ""},
		{"negative MinScore", hyfd.Request{Relation: rel, Mode: hyfd.ModeRanked, MinScore: -0.5}, nil, ""},
		{"incremental over a relation", hyfd.Request{Relation: rel, Mode: hyfd.ModeIncremental, Delta: delta, Base: cover}, nil, "needs a prepared Dataset"},
		{"incremental without delta", hyfd.Request{Dataset: ds, Mode: hyfd.ModeIncremental, Base: cover}, nil, "needs Request.Delta"},
		{"incremental without base", hyfd.Request{Dataset: ds, Mode: hyfd.ModeIncremental, Delta: delta}, nil, "needs Request.Base"},
		{"incremental with an LHS bound", hyfd.Request{Dataset: ds, Mode: hyfd.ModeIncremental, Delta: delta, Base: coverOver(3), Options: hyfd.Options{MaxLhsSize: 1}}, nil, "unbounded cover"},
		{"incremental with a wider base", hyfd.Request{Dataset: ds, Mode: hyfd.ModeIncremental, Delta: delta, Base: coverOver(5)}, nil, "over the Dataset's 3 columns (got a cover over 5)"},
		{"incremental with a narrower base", hyfd.Request{Dataset: ds, Mode: hyfd.ModeIncremental, Delta: delta, Base: coverOver(2)}, nil, "over the Dataset's 3 columns (got a cover over 2)"},
	} {
		events := 0
		tc.req.Options.Observer = hyfd.ObserverFunc(func(hyfd.Event) { events++ })
		res, err := hyfd.Run(context.Background(), tc.req)
		if err == nil || res != nil {
			t.Fatalf("%s: got result %v, err %v; want an error", tc.name, res, err)
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.is)
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: err = %v, want it to mention %q", tc.name, err, tc.msg)
		}
		if events != 0 {
			t.Fatalf("%s: %d trace events before the error %v", tc.name, events, err)
		}
	}
}

// TestRunColdStatsIncludePreprocessing: a cold run of every mode and every
// algorithm pays for preprocessing, reports it, and counts it in its
// TotalTime. On the key-only table preprocessing dominates: every column
// is unique, so the discovery after it is trivial.
func TestRunColdStatsIncludePreprocessing(t *testing.T) {
	keys := hyfd.NewRelation("keys", []string{"a", "b", "c"})
	for i := 0; i < 2000; i++ {
		keys.AppendRow([]string{strconv.Itoa(i), strconv.Itoa(3 * i), strconv.Itoa(7 * i)})
	}
	reqs := []hyfd.Request{
		{Mode: hyfd.ModeAFD, MaxError: 0.05},
		{Mode: hyfd.ModeUCC},
		{Mode: hyfd.ModeRanked, TopK: 5},
	}
	for _, name := range hyfd.Algorithms() {
		reqs = append(reqs, hyfd.Request{Algorithm: name})
	}
	for _, rel := range []*hyfd.Relation{syntheticRelation(300, 6, 4, 23), keys} {
		for _, req := range reqs {
			req.Relation = rel
			res, err := hyfd.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s mode %q algorithm %q: %v", rel.Name, req.Mode, req.Algorithm, err)
			}
			s := res.Stats
			if s.Warm || s.PreprocessingTime <= 0 || s.TotalTime < s.PreprocessingTime {
				t.Fatalf("%s mode %q algorithm %q: warm %v, preprocessing %v, total %v; want a cold run with 0 < preprocessing <= total",
					rel.Name, req.Mode, req.Algorithm, s.Warm, s.PreprocessingTime, s.TotalTime)
			}
		}
	}
}

// TestRunHoldsCoverOnce: every algorithm's fd-mode Result lists the cover
// of its Set without a copy, in the Set's order.
func TestRunHoldsCoverOnce(t *testing.T) {
	rel := syntheticRelation(8, 5, 4, 7)
	for _, alg := range hyfd.Algorithms() {
		res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		all := res.Set.All()
		if len(res.FDs) == 0 || len(res.FDs) != len(all) {
			t.Fatalf("%q: %d FDs listed, the set holds %d", alg, len(res.FDs), len(all))
		}
		if sorted := res.Set.Sorted(); &res.FDs[0] != &sorted[0] {
			t.Fatalf("%q: Result.FDs is a copy of the set's cover", alg)
		}
		for i, f := range all {
			if f.Rhs != res.FDs[i].Rhs || !f.Lhs.Equal(res.FDs[i].Lhs) {
				t.Fatalf("%q: FDs[%d] = %v, want %v", alg, i, res.FDs[i], f)
			}
		}
	}
}
