package harness

import (
	"context"
	"testing"
)

// TestAllAlgorithmsAgreeOnCatalogAnalogs cross-validates every baseline
// against HyFD on (scaled) evaluation dataset analogs — structured data
// with keys, hierarchies, correlations and nulls, unlike the uniform random
// relations of the per-algorithm conformance suites.
func TestAllAlgorithmsAgreeOnCatalogAnalogs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := []Spec{
		{Dataset: "iris", Rows: 150},
		{Dataset: "balance-scale", Rows: 300},
		{Dataset: "bridges", Rows: 108},
		{Dataset: "echocardiogram", Rows: 132},
		{Dataset: "abalone", Rows: 400},
		{Dataset: "breast-cancer", Rows: 300},
	}
	for _, c := range cases {
		c := c
		t.Run(c.Dataset, func(t *testing.T) {
			rel, err := Materialize(c)
			if err != nil {
				t.Fatal(err)
			}
			reference := Measure(context.Background(), Spec{Algorithm: HyFDName, Dataset: c.Dataset}, rel)
			if reference.Err != "" {
				t.Fatalf("HyFD: %s", reference.Err)
			}
			for _, alg := range AlgorithmNames {
				if alg == HyFDName {
					continue
				}
				r := Measure(context.Background(), Spec{Algorithm: alg, Dataset: c.Dataset}, rel)
				if r.Err != "" {
					t.Fatalf("%s: %s", alg, r.Err)
				}
				if r.FDs != reference.FDs {
					t.Fatalf("%s found %d FDs on %s, HyFD found %d",
						alg, r.FDs, c.Dataset, reference.FDs)
				}
			}
		})
	}
}

// TestHyFDVariantsAgreeOnAnalogs compares HyFD configurations (threads,
// thresholds) on structured data — counts must be identical.
func TestHyFDVariantsAgreeOnAnalogs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rel, err := Materialize(Spec{Dataset: "ncvoter", Rows: 500})
	if err != nil {
		t.Fatal(err)
	}
	base := Measure(context.Background(), Spec{Algorithm: HyFDName, Dataset: "ncvoter"}, rel)
	if base.Err != "" {
		t.Fatal(base.Err)
	}
	for _, spec := range []Spec{
		{Algorithm: HyFDName, Dataset: "ncvoter", Threads: 8},
		{Algorithm: HyFDName, Dataset: "ncvoter", Threshold: 0.3},
		{Algorithm: HyFDName, Dataset: "ncvoter", Threshold: 0.0005},
	} {
		r := Measure(context.Background(), spec, rel)
		if r.Err != "" || r.FDs != base.FDs {
			t.Fatalf("variant %+v: fds=%d err=%q, want %d", spec, r.FDs, r.Err, base.FDs)
		}
	}
}
