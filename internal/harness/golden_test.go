package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// goldenKey names a digest-bearing job of the ranked or incremental
// experiment the way testdata/golden_digests.json does.
func goldenKey(s Spec) string {
	if s.TopK > 0 {
		return fmt.Sprintf("ranked %s top-%d threads %d", s.Dataset, s.TopK, s.Threads)
	}
	kind := "cold"
	if s.Incremental {
		kind = fmt.Sprintf("+%d rows", s.DeltaRows)
	}
	return fmt.Sprintf("incremental %s %d rows %s threads %d", s.Dataset, s.Rows, kind, s.Threads)
}

// TestGoldenDigests runs every digest-bearing job of the ranked and
// incremental experiments, metered as cmd/bench runs them, and compares
// each digest with the value committed in BENCH_ranked.json and
// BENCH_incremental.json, pinned in testdata/golden_digests.json (a ranked
// digest, which is multi-line text, as its sha256). These ten digests are
// the cover oracle of every engine change: a run may get faster or report
// differently, but it must find the same covers and the same rankings.
func TestGoldenDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	seen := 0
	for _, e := range []Experiment{Ranked(opts), Incremental(opts)} {
		for _, spec := range e.Jobs {
			if spec.TopK == 0 && !spec.Digest {
				continue
			}
			spec.Metrics = true
			key := goldenKey(spec)
			res := ExecuteInProcess(context.Background(), spec)
			if res.Err != "" {
				t.Fatalf("%s: %s", key, res.Err)
			}
			got := res.CoverDigest
			if spec.TopK > 0 {
				sum := sha256.Sum256([]byte(res.RankedDigest))
				got = hex.EncodeToString(sum[:])
			}
			if got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Fatalf("ran %d digest-bearing jobs, %d digests are pinned", seen, len(want))
	}
}
