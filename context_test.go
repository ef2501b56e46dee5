package hyfd_test

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"hyfd"
	"hyfd/internal/harness"
)

// syntheticRelation builds a random relation large enough that a full
// discovery run takes far longer than the cancellation bounds below.
func syntheticRelation(rows, cols, domain int, seed int64) *hyfd.Relation {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, cols)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
	}
	rel := hyfd.NewRelation("synthetic", names)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(domain))
		}
		rel.AppendRow(row)
	}
	return rel
}

// TestDeadlineAbortsMidRun: an already-tight deadline must abort HyFD and
// the baselines mid-run, returning an error wrapping ctx.Err() in bounded
// time — the engine's checkpoints sit a few thousand operations apart, so
// the return is near-immediate even though the full run takes seconds.
func TestDeadlineAbortsMidRun(t *testing.T) {
	rel := syntheticRelation(2000, 10, 4, 11)
	for _, name := range []string{hyfd.AlgorithmHyFD, hyfd.AlgorithmFdep, hyfd.AlgorithmTane, hyfd.AlgorithmDfd} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		start := time.Now()
		_, err := hyfd.Run(ctx, hyfd.Request{Relation: rel, Algorithm: name, Options: hyfd.Options{Threads: 4}})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%s: canceled run took %s to return", name, elapsed)
		}
	}
}

// TestCancelMidRun: canceling from another goroutine while HyFD's parallel
// validation is running aborts the run promptly with context.Canceled.
func TestCancelMidRun(t *testing.T) {
	rel := syntheticRelation(4000, 12, 4, 12)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := hyfd.Run(ctx, hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 4}})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("canceled run took %s to return", elapsed)
	}
}

// TestObserverEventSequence: a run reports preprocessing first, sampling
// before validation, and completion last, and the same event stream feeds
// the per-phase Stats timings.
func TestObserverEventSequence(t *testing.T) {
	rel := syntheticRelation(300, 6, 3, 13)
	var events []hyfd.Event
	res, err := hyfd.Run(context.Background(), hyfd.Request{
		Relation: rel,
		Options:  hyfd.Options{Observer: hyfd.ObserverFunc(func(e hyfd.Event) { events = append(events, e) })},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events observed", len(events))
	}
	// Preprocessing reports one PLIBuilt per attribute, in attribute
	// order, then PreprocessingDone — all before any sampling round.
	for a := 0; a < rel.NumCols(); a++ {
		built, ok := events[a].(hyfd.PLIBuilt)
		if !ok {
			t.Fatalf("event %d = %T, want PLIBuilt", a, events[a])
		}
		if built.Attr != a {
			t.Fatalf("event %d reports attribute %d, want %d", a, built.Attr, a)
		}
	}
	if _, ok := events[rel.NumCols()].(hyfd.PreprocessingDone); !ok {
		t.Fatalf("event %d = %T, want PreprocessingDone", rel.NumCols(), events[rel.NumCols()])
	}
	done, ok := events[len(events)-1].(hyfd.Done)
	if !ok {
		t.Fatalf("last event = %T, want Done", events[len(events)-1])
	}
	if done.FDs != len(res.FDs) {
		t.Fatalf("Done.FDs = %d, result has %d", done.FDs, len(res.FDs))
	}
	firstSampling, firstValidation := -1, -1
	for i, e := range events {
		switch e.(type) {
		case hyfd.SamplingRound:
			if firstSampling < 0 {
				firstSampling = i
			}
		case hyfd.ValidationLevel:
			if firstValidation < 0 {
				firstValidation = i
			}
		}
	}
	if firstSampling < 0 || firstValidation < 0 {
		t.Fatalf("missing phases: sampling at %d, validation at %d", firstSampling, firstValidation)
	}
	if firstSampling > firstValidation {
		t.Fatalf("validation (%d) observed before sampling (%d)", firstValidation, firstSampling)
	}
	s := res.Stats
	if s.TotalTime <= 0 || s.TotalTime < s.PreprocessingTime {
		t.Fatalf("timings inconsistent: %+v", s)
	}
	if s.SamplingTime <= 0 && s.ValidationTime <= 0 {
		t.Fatalf("no phase time recorded: %+v", s)
	}
}

// TestErrUnknownAlgorithmSentinel: the typed sentinel must be detectable
// with errors.Is while the message keeps the available names.
func TestErrUnknownAlgorithmSentinel(t *testing.T) {
	rel := hyfd.NewRelation("r", []string{"A"})
	_, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: "NoSuchAlgo"})
	if !errors.Is(err, hyfd.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	_, err = hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: "AlsoMissing"})
	if !errors.Is(err, hyfd.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestBaselineStatsAndMaxLhs: a baseline run must report dataset-shape stats
// for baselines and honor the MaxLhsSize option.
func TestBaselineStatsAndMaxLhs(t *testing.T) {
	rel := syntheticRelation(40, 5, 2, 14)
	full, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: hyfd.AlgorithmTane})
	if err != nil {
		t.Fatal(err)
	}
	s := full.Stats
	if s == nil || s.Rows != 40 || s.Cols != 5 || s.FDCount != len(full.FDs) || !s.Complete {
		t.Fatalf("baseline stats = %+v", s)
	}
	for _, name := range []string{hyfd.AlgorithmTane, hyfd.AlgorithmFdep, hyfd.AlgorithmFastFDs} {
		bounded, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: name, Options: hyfd.Options{MaxLhsSize: 1}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range bounded.FDs {
			if f.Lhs.Cardinality() > 1 {
				t.Fatalf("%s: FD %v exceeds MaxLhsSize", name, f)
			}
		}
		for _, f := range full.FDs {
			if f.Lhs.Cardinality() <= 1 && !bounded.Set.Contains(f) {
				t.Fatalf("%s: bounded result lost %v", name, f)
			}
		}
		if bounded.Stats == nil || bounded.Stats.Complete || bounded.Stats.MaxLhs != 1 {
			t.Fatalf("%s: bounded stats = %+v", name, bounded.Stats)
		}
	}
}

// TestBaselineDeadlines: a deadline must bound every baseline, including
// the phases that run partition products (TANE's key pruning and
// apriori-gen) and minimal hitting sets (Dep-Miner, DFD). Each of these
// runs takes several seconds to finish on its 100-row analog; each must
// return an error wrapping context.DeadlineExceeded within its deadline
// plus a small slack.
func TestBaselineDeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each case up to its deadline")
	}
	const deadline, slack = 500 * time.Millisecond, 250 * time.Millisecond
	cases := []struct{ algorithm, dataset string }{
		{hyfd.AlgorithmTane, "uniprot"},
		{hyfd.AlgorithmDepMiner, "horse"},
		{hyfd.AlgorithmDepMiner, "uniprot"},
		{hyfd.AlgorithmDepMiner, "flight"},
		{hyfd.AlgorithmDfd, "horse"},
	}
	ctx := context.Background()
	for _, c := range cases {
		rel, err := harness.Materialize(harness.Spec{Dataset: c.dataset, Rows: 100})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		runCtx, cancel := context.WithTimeout(ctx, deadline)
		start := time.Now()
		_, err = hyfd.Run(runCtx, hyfd.Request{Dataset: ds, Algorithm: c.algorithm, Options: hyfd.Options{Threads: 1}})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s on %s: err = %v, want context.DeadlineExceeded", c.algorithm, c.dataset, err)
		}
		if elapsed > deadline+slack {
			t.Errorf("%s on %s: returned after %s, deadline %s", c.algorithm, c.dataset, elapsed, deadline)
		}
	}
}
