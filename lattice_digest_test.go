package hyfd_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hyfd"
	"hyfd/internal/harness"
)

// latticeTables are the tables whose lattice outputs are pinned: the three
// tables serve-stream reads at their served sizes, and two small analogs
// with nulls, on which the two null semantics differ.
var latticeTables = []harness.Spec{
	{Dataset: "abalone", Rows: 2000},
	{Dataset: "breast-cancer", Rows: 699},
	{Dataset: "chess", Rows: 2000},
	{Dataset: "bridges"},
	{Dataset: "echocardiogram"},
}

// latticeSettings are the (ε, MaxLhsSize) pairs every table runs at. The
// ucc list depends only on the bound, so it is pinned once per bound.
var latticeSettings = []struct {
	maxError float64
	maxLhs   int
}{{0, 0}, {0.05, 0}, {0.2, 2}}

// renderUCCs renders a ucc list one set per line.
func renderUCCs(uccs []hyfd.AttrSet) string {
	var b strings.Builder
	for _, u := range uccs {
		b.WriteString(u.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// renderAFDs renders an AFD list one dependency per line, with its g3 in
// full precision.
func renderAFDs(afds []hyfd.ApproximateFD) string {
	var b strings.Builder
	for _, a := range afds {
		fmt.Fprintf(&b, "%s -> %d %s\n", a.Lhs.String(), a.Rhs, strconv.FormatFloat(a.Error, 'g', -1, 64))
	}
	return b.String()
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestLatticeDigests pins the ucc and afd outputs of every lattice table,
// under both null semantics and at every setting, as sha256 digests of the
// rendered lists (g3 values included). The digests in
// testdata/lattice_digests.json were recorded with the probe-table
// partition product and a map-counted g3; any partition kernel must
// reproduce them.
func TestLatticeDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/lattice_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := map[string]string{}
	for _, spec := range latticeTables {
		rel, err := harness.Materialize(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{NullSemantics: ns, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			prefix := fmt.Sprintf("%s/%d/%s", spec.Dataset, rel.NumRows(), ns)
			for _, s := range latticeSettings {
				opts := hyfd.Options{MaxLhsSize: s.maxLhs, Threads: 1}
				uccKey := fmt.Sprintf("%s/ucc/max%d", prefix, s.maxLhs)
				if _, done := got[uccKey]; !done {
					res, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Mode: hyfd.ModeUCC, Options: opts})
					if err != nil {
						t.Fatal(err)
					}
					got[uccKey] = sha(renderUCCs(res.UCCs))
				}
				res, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Mode: hyfd.ModeAFD, MaxError: s.maxError, Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/afd/e%g/max%d", prefix, s.maxError, s.maxLhs)] = sha(renderAFDs(res.AFDs))
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		for k, v := range got {
			if want[k] != v {
				t.Errorf("%s: digest %s, pinned %q", k, v, want[k])
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: pinned but not computed", k)
			}
		}
		g, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("lattice digests differ from testdata/lattice_digests.json; got:\n%s", g)
	}
}
