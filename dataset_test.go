package hyfd_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hyfd"
)

// datasetRel builds a deterministic relation with enough structure (an
// exact FD, correlated and free columns) and enough nulls that the two
// null semantics yield different FD sets.
func datasetRel() *hyfd.Relation {
	rel := hyfd.NewRelation("acceptance", []string{"A", "B", "C", "D", "E"})
	for i := 0; i < 30; i++ {
		row := []string{
			fmt.Sprint(i % 5),
			fmt.Sprint(i % 3),
			fmt.Sprint((i % 5) * 10), // C is determined by A
			fmt.Sprint(i % 7),
			fmt.Sprint(i % 2),
		}
		if i%6 == 0 {
			row[3] = hyfd.Null
		}
		if i%9 == 0 {
			row[1] = hyfd.Null
		}
		rel.AppendRow(row)
	}
	return rel
}

// TestDatasetWarmMatchesCold is the Dataset layer's acceptance test: one
// Prepare followed by N concurrent warm runs — HyFD and every registered
// baseline — must be bit-for-bit identical to N cold runs, for thread
// counts 1 and 4 and both null semantics, and the warm runs must report
// Stats.Warm with a near-zero PreprocessingTime.
func TestDatasetWarmMatchesCold(t *testing.T) {
	rel := datasetRel()
	semantics := []struct {
		name string
		ns   hyfd.NullSemantics
	}{
		{"null=null", hyfd.NullEqualsNull},
		{"null!=null", hyfd.NullNotEqualsNull},
	}
	for _, sem := range semantics {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", sem.name, threads), func(t *testing.T) {
				ctx := context.Background()

				// Cold reference runs, preprocessing from scratch each time.
				cold := make(map[string]*hyfd.Result)
				for _, alg := range hyfd.Algorithms() {
					res, err := hyfd.Run(ctx, hyfd.Request{
						Relation:  rel,
						Algorithm: alg,
						Options:   hyfd.Options{NullSemantics: sem.ns, Threads: threads},
					})
					if err != nil {
						t.Fatalf("%s cold: %v", alg, err)
					}
					cold[alg] = res
				}

				// One Prepare, then every algorithm warm — concurrently, and
				// twice each, so the runs genuinely overlap on the shared
				// Dataset.
				ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{
					NullSemantics: sem.ns,
					Threads:       threads,
				})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make(chan error, 2*len(hyfd.Algorithms()))
				for _, alg := range hyfd.Algorithms() {
					for rep := 0; rep < 2; rep++ {
						wg.Add(1)
						go func(alg string) {
							defer wg.Done()
							got, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Algorithm: alg, Options: hyfd.Options{Threads: threads}})
							if err != nil {
								errs <- fmt.Errorf("%s warm: %w", alg, err)
								return
							}
							want := cold[alg]
							if !got.Set.Equal(want.Set) {
								errs <- fmt.Errorf("%s warm disagrees with cold:\nmissing: %v\nextra: %v",
									alg, want.Set.Diff(got.Set), got.Set.Diff(want.Set))
								return
							}
							if got.Stats == nil || !got.Stats.Warm {
								errs <- fmt.Errorf("%s warm run did not set Stats.Warm", alg)
								return
							}
							if alg == hyfd.AlgorithmHyFD && got.Stats.PreprocessingTime > 100*time.Millisecond {
								errs <- fmt.Errorf("warm PreprocessingTime = %v, want ~0", got.Stats.PreprocessingTime)
							}
						}(alg)
					}
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// TestDatasetApproximateAndUCCs pins the warm variants of the adjacent
// discovery problems to their cold counterparts on one shared Dataset.
func TestDatasetApproximateAndUCCs(t *testing.T) {
	rel := datasetRel()
	ctx := context.Background()
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}

	coldA, err := hyfd.Run(ctx, hyfd.Request{Relation: rel, Mode: hyfd.ModeAFD, MaxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	warmA, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Mode: hyfd.ModeAFD, MaxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldA.AFDs, warmA.AFDs) {
		t.Fatalf("approximate FDs diverge:\ncold: %v\nwarm: %v", coldA.AFDs, warmA.AFDs)
	}

	coldU, err := hyfd.Run(ctx, hyfd.Request{Relation: rel, Mode: hyfd.ModeUCC})
	if err != nil {
		t.Fatal(err)
	}
	warmU, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Mode: hyfd.ModeUCC})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldU.UCCs, warmU.UCCs) {
		t.Fatalf("UCCs diverge:\ncold: %v\nwarm: %v", coldU.UCCs, warmU.UCCs)
	}
}

// TestDatasetErrorContract pins the error behavior of warm requests: nil
// Datasets are rejected in every mode, and the warm dispatcher reports
// unknown names exactly like the cold one.
func TestDatasetErrorContract(t *testing.T) {
	ctx := context.Background()
	rel := datasetRel()
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Algorithm: "NoSuchAlgorithm"}); !errors.Is(err, hyfd.ErrUnknownAlgorithm) {
		t.Fatalf("unknown name: err = %v, want ErrUnknownAlgorithm", err)
	}
	for _, req := range []hyfd.Request{
		{Dataset: nil},
		{Dataset: nil, Algorithm: hyfd.AlgorithmTane},
		{Dataset: nil, Mode: hyfd.ModeAFD},
		{Dataset: nil, Mode: hyfd.ModeUCC},
	} {
		if _, err := hyfd.Run(ctx, req); err == nil {
			t.Fatalf("nil dataset accepted by %+v", req)
		}
	}
	if _, err := hyfd.Prepare(ctx, nil, hyfd.PrepareOptions{}); err == nil {
		t.Fatal("nil relation accepted by Prepare")
	}
}
