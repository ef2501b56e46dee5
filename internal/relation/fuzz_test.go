package relation

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV ensures arbitrary input and separators never panic the
// parser, that accepted relations are structurally valid, and that the
// sequential and the parallel parser agree: every input parses at threads 1
// and 3 to identical relations or to identical errors.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n", true, byte(','))
	f.Add("a;b\n", false, byte(';'))
	f.Add("", true, byte(','))
	f.Add("", true, byte('\n'))
	f.Add("a,b\n1\n", true, byte(','))
	f.Add("\"q\"\"x\",y\n1,2\n", true, byte(','))
	f.Add("a,a\n1,2\n", true, byte(','))
	f.Add("a,b\n,NULL\n", false, byte(0))
	f.Add("a\tb\n1\t\"2\"\n", true, byte('\t'))
	f.Fuzz(func(t *testing.T, input string, header bool, sep byte) {
		read := func(threads int) (*Relation, error) {
			return ReadCSV("fuzz", strings.NewReader(input), CSVOptions{
				Comma:       rune(sep),
				HasHeader:   header,
				EmptyIsNull: true,
				NullLiteral: "NULL",
				Threads:     threads,
			})
		}
		rel, err := read(1)
		par, parErr := read(3)
		if (err == nil) != (parErr == nil) || err != nil && err.Error() != parErr.Error() {
			t.Fatalf("sep %q: threads 1 error %v, threads 3 error %v", sep, err, parErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(rel, par) {
			t.Fatalf("sep %q: threads 1 and 3 parsed different relations:\n%v\n%v", sep, rel, par)
		}
		if err := rel.Validate(); err != nil {
			// Duplicate/empty header names are rejected by ReadCSV itself;
			// reaching here means ReadCSV accepted an invalid relation.
			t.Fatalf("accepted invalid relation: %v", err)
		}
	})
}
