package hyfd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"hyfd"
	"hyfd/internal/harness"
)

// validationTables are the fd-mode runs whose covers and engine counts are
// pinned: four short-table analogs at 2,000 rows, whose runs switch phases
// and re-validate nodes with violations, and plista at 500 rows, whose
// Phase 2 checks thousands of nodes over 63 columns.
var validationTables = []harness.Spec{
	{Dataset: "abalone", Rows: 2000},
	{Dataset: "ncvoter", Rows: 2000},
	{Dataset: "adult", Rows: 2000},
	{Dataset: "letter", Rows: 2000},
	{Dataset: "plista", Rows: 500},
}

// validationDigest is one pinned fd-mode run: the cover's sha256 digest
// and the engine counts that show the same work was done.
type validationDigest struct {
	Digest        string `json:"digest"`
	Comparisons   int64  `json:"comparisons"`
	Validations   int64  `json:"validations"`
	PhaseSwitches int    `json:"phase_switches"`
	Observations  int    `json:"observations"`
}

// TestValidationDigests pins the fd cover and the engine counts of
// hyfd.Run on every validation table at one and two threads. The values
// in testdata/validation_digests.json were recorded with the direct
// per-node check of every FDTree node; a validator that checks levels
// another way must find the same covers through the same comparisons,
// validations, phase switches and observations.
func TestValidationDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/validation_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]validationDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := map[string]validationDigest{}
	for _, spec := range validationTables {
		rel, err := harness.Materialize(spec)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2} {
			res, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Options: hyfd.Options{Threads: threads}})
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%d/threads%d", spec.Dataset, rel.NumRows(), threads)] = validationDigest{
				Digest:        sha(res.Set.String()),
				Comparisons:   res.Stats.Comparisons,
				Validations:   res.Stats.Validations,
				PhaseSwitches: res.Stats.PhaseSwitches,
				Observations:  res.Stats.Observations,
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		for k, v := range got {
			if want[k] != v {
				t.Errorf("%s: got %+v, pinned %+v", k, v, want[k])
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: pinned but not computed", k)
			}
		}
		g, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("validation digests differ from testdata/validation_digests.json; got:\n%s", g)
	}
}
