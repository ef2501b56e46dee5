//go:build !race

package hyfd_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"hyfd"
	"hyfd/internal/harness"
)

// wideTables are the FD-rich analogs whose covers are pinned at one
// thread: flight's 109 columns give two-word LHSs, so its 2 M FDs exercise
// the canonical order past the first key word, and plista's 63 columns
// fill one word. The race build skips them: flight alone takes seconds.
var wideTables = []harness.Spec{
	{Dataset: "flight", Rows: 1000},
	{Dataset: "plista", Rows: 1000},
}

// wideCover is one pinned cover: the sha256 of its canonical rendering
// (fd.Set.String) and its size.
type wideCover struct {
	Digest string `json:"digest"`
	FDs    int    `json:"fds"`
}

// TestWideCoverDigests pins the one-thread fd cover of hyfd.Run on the
// wide tables, in canonical order, against
// testdata/wide_cover_digests.json.
func TestWideCoverDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/wide_cover_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]wideCover
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]wideCover{}
	for _, spec := range wideTables {
		rel, err := harness.Materialize(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 1}})
		if err != nil {
			t.Fatal(err)
		}
		// Hash the lines Set.String renders without building the string.
		h := sha256.New()
		for _, f := range res.FDs {
			h.Write([]byte(f.String()))
			h.Write([]byte{'\n'})
		}
		got[fmt.Sprintf("%s/%dx%d", spec.Dataset, rel.NumRows(), rel.NumCols())] = wideCover{
			Digest: hex.EncodeToString(h.Sum(nil)),
			FDs:    len(res.FDs),
		}
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("wide covers differ from testdata/wide_cover_digests.json; got:\n%s", g)
	}
}
