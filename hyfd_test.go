package hyfd_test

import (
	"context"
	"strings"
	"testing"

	"hyfd"
)

func classCSV() string {
	return "Teacher,Subject,Room\n" +
		"Brown,Math,R1\n" +
		"Walker,Math,R2\n" +
		"Brown,English,R1\n" +
		"Miller,English,R3\n" +
		"Brown,Math,R1\n"
}

func TestPublicAPIDiscover(t *testing.T) {
	rel, err := hyfd.ReadCSV("class", strings.NewReader(classCSV()), hyfd.CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) == 0 || res.Set.Size() != len(res.FDs) {
		t.Fatalf("result inconsistent: %d vs %d", len(res.FDs), res.Set.Size())
	}
	if !res.Set.Contains(hyfd.FD{Lhs: hyfd.NewAttrSet(3, 0), Rhs: 2}) {
		t.Fatalf("Teacher → Room missing:\n%s", res.Set)
	}
	if res.Stats == nil || !res.Stats.Complete {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Format against the relation's column names.
	found := false
	for _, f := range res.FDs {
		if f.Format(rel) == "[Teacher] -> Room" {
			found = true
		}
	}
	if !found {
		t.Fatal("Format rendering missing [Teacher] -> Room")
	}
}

func TestAllAlgorithmsAgreeOnPublicAPI(t *testing.T) {
	rel, err := hyfd.ReadCSV("class", strings.NewReader(classCSV()), hyfd.CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel})
	if err != nil {
		t.Fatal(err)
	}
	algos := hyfd.Algorithms()
	if len(algos) != 8 || algos[0] != hyfd.AlgorithmHyFD {
		t.Fatalf("Algorithms() = %v", algos)
	}
	for _, name := range algos {
		got, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Set.Equal(want.Set) {
			t.Fatalf("%s disagrees with HyFD:\nmissing: %v\nextra: %v",
				name, want.Set.Diff(got.Set), got.Set.Diff(want.Set))
		}
	}
}

func TestDiscoverWithUnknownAlgorithm(t *testing.T) {
	rel := hyfd.NewRelation("r", []string{"A"})
	if _, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: "NoSuchAlgo"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestDiscoverApproximatePublicAPI(t *testing.T) {
	rel := hyfd.NewRelation("addr", []string{"Zip", "City"})
	for i := 0; i < 19; i++ {
		rel.AppendRow([]string{"14482", "Potsdam"})
		rel.AppendRow([]string{"10115", "Berlin"})
	}
	rel.AppendRow([]string{"14482", "Typo"})
	rel.AppendRow([]string{"10115", "Typo2"})
	res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Mode: hyfd.ModeAFD, MaxError: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	afds := res.AFDs
	found := false
	for _, a := range afds {
		if a.Rhs == 1 && a.Lhs.Test(0) && a.Error > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("approximate Zip→City missing: %v", afds)
	}
}

func TestDiscoverUCCsPublicAPI(t *testing.T) {
	rel := hyfd.NewRelation("k", []string{"ID", "X"})
	rel.AppendRow([]string{"1", "a"})
	rel.AppendRow([]string{"2", "a"})
	rel.AppendRow([]string{"3", "b"})
	res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Mode: hyfd.ModeUCC})
	if err != nil {
		t.Fatal(err)
	}
	uccs := res.UCCs
	if len(uccs) != 1 || !uccs[0].Equal(hyfd.NewAttrSet(2, 0)) {
		t.Fatalf("UCCs = %v", uccs)
	}
}
