package dfd

import (
	"context"
	"math/rand"
	"testing"

	"hyfd/internal/algorithms"
	"hyfd/internal/algorithms/algotest"
	"hyfd/internal/dataset"
)

func TestConformance(t *testing.T) {
	algotest.RunConformance(t, New(1), 606)
}

// TestSeedIndependence: the random walk order must never change the result.
func TestSeedIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		rel := algotest.RandomRelation(r, 30, 5, 3)
		ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(0).Discover(context.Background(), ds, algorithms.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			got, err := New(seed).Discover(context.Background(), ds, algorithms.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d seed %d: results differ:\nmissing: %v\nextra: %v",
					trial, seed, want.Diff(got), got.Diff(want))
			}
		}
	}
}
