package hyfd_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hyfd"
)

// TestRegistryRoundTrip drives every name reported by Algorithms() through
// Run on a small relation: each registered algorithm must
// dispatch, complete, and agree with HyFD's FD set, and an unregistered
// name must fail with ErrUnknownAlgorithm.
func TestRegistryRoundTrip(t *testing.T) {
	rel, err := hyfd.ReadCSV("class", strings.NewReader(classCSV()), hyfd.CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range hyfd.Algorithms() {
		t.Run(name, func(t *testing.T) {
			got, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: name})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Set.Equal(want.Set) {
				t.Fatalf("disagrees with HyFD:\nmissing: %v\nextra: %v",
					want.Set.Diff(got.Set), got.Set.Diff(want.Set))
			}
			if got.Stats == nil || got.Stats.FDCount != got.Set.Size() {
				t.Fatalf("stats = %+v", got.Stats)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		_, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: "NoSuchAlgorithm"})
		if !errors.Is(err, hyfd.ErrUnknownAlgorithm) {
			t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
		}
		// A nil context is treated as context.Background().
		_, err = hyfd.Run(nil, hyfd.Request{Relation: rel, Algorithm: "NoSuchAlgorithm"})
		if !errors.Is(err, hyfd.ErrUnknownAlgorithm) {
			t.Fatalf("nil-context err = %v, want ErrUnknownAlgorithm", err)
		}
	})
}
