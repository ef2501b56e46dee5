package relation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV ensures arbitrary input and separators never panic the
// parser, that accepted relations are structurally valid, and that the
// chunked reader agrees with the sequential reference: every input parses
// at threads 1 and 3 to identical relations or to identical errors, and so
// it does when cut into chunks of a fuzzed size of 1 to 64 bytes, which
// puts chunk boundaries everywhere a small input allows.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n", true, byte(','), uint8(0))
	f.Add("a;b\n", false, byte(';'), uint8(1))
	f.Add("", true, byte(','), uint8(2))
	f.Add("", true, byte('\n'), uint8(3))
	f.Add("a,b\n1\n", true, byte(','), uint8(4))
	f.Add("\"q\"\"x\",y\n1,2\n", true, byte(','), uint8(5))
	f.Add("a,a\n1,2\n", true, byte(','), uint8(6))
	f.Add("a,b\n,NULL\n", false, byte(0), uint8(7))
	f.Add("a\tb\n1\t\"2\"\n", true, byte('\t'), uint8(8))
	f.Add("\n\nNULL,b\n\n1,NULL\n\n\n3,4\n", true, byte(','), uint8(0))     // blank lines, also before the header
	f.Add("a,b\n1,2\n3,4", true, byte(','), uint8(2))                       // last line without \n
	f.Add("a,b\r\n1,2\r\n3,\r\n", true, byte(','), uint8(3))                // CRLF
	f.Add("a,b\n1,\"x\ny\"\n2,\"\n\"\n3,z\n", true, byte(','), uint8(4))    // quoted newlines
	f.Add("NULL,b\nNULL,1\n2,NULL\n", true, byte(','), uint8(1))            // the NULL literal
	f.Add("a,b\n1,2\n3,4\n5,6\n7,8\n9\n10,11\n", true, byte(','), uint8(5)) // arity error in a later chunk
	f.Add("a,,c\n1,2,3\n", true, byte(','), uint8(6))                       // empty header cell
	f.Add("a\xc3\xa9b\n1\xc3\xa92\n\xc3\xa9\n", true, byte(0xe9), uint8(2)) // multi-byte separator
	f.Add("a,b\n1,2\n3,4\nx\"y,5\n", true, byte(','), uint8(1))             // bare quote in a later chunk
	f.Fuzz(func(t *testing.T, input string, header bool, sep byte, chunk uint8) {
		opts := CSVOptions{
			Comma:       rune(sep),
			HasHeader:   header,
			EmptyIsNull: true,
			NullLiteral: "NULL",
		}
		read := func(threads, chunkSize int) (*Relation, error) {
			o := opts
			o.Threads = threads
			return readCSV("fuzz", strings.NewReader(input), o, chunkSize)
		}
		same := func(what string, rel *Relation, err error, want *Relation, wantErr error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("sep %q, %s: error %v, want %v", sep, what, err, wantErr)
			}
			if !reflect.DeepEqual(rel, want) {
				t.Fatalf("sep %q, %s: parsed\n%v\nwant\n%v", sep, what, rel, want)
			}
		}
		rel, err := read(1, csvChunkSize)
		par, parErr := read(3, csvChunkSize)
		same("threads 3 vs threads 1", par, parErr, rel, err)

		seq, seqErr := readCSVSequential("fuzz", strings.NewReader(input), opts)
		same("threads 1 vs sequential", rel, err, seq, seqErr)
		chunkSize := 1 + int(chunk)%64
		for _, threads := range []int{1, 3} {
			got, gotErr := read(threads, chunkSize)
			same(fmt.Sprintf("threads %d, %d-byte chunks vs sequential", threads, chunkSize), got, gotErr, seq, seqErr)
		}
		if err != nil {
			return
		}
		if err := rel.Validate(); err != nil {
			// Duplicate/empty header names are rejected by ReadCSV itself;
			// reaching here means ReadCSV accepted an invalid relation.
			t.Fatalf("accepted invalid relation: %v", err)
		}
	})
}
