package relation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// buildTrickyCSV produces an input exercising everything the chunker must
// respect: quoted fields with embedded newlines, separators and escaped
// quotes, empty (null) cells, a NULL literal, and enough rows to span many
// chunks.
func buildTrickyCSV(rows int) string {
	var b strings.Builder
	b.WriteString("id,quoted,cat,maybe\n")
	for i := 0; i < rows; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "%d,\"line1\nline2 %d\",c%d,\n", i, i, i%3)
		case 1:
			fmt.Fprintf(&b, "%d,\"comma, quote \"\"q%d\"\"\",c%d,NULL\n", i, i, i%3)
		case 2:
			fmt.Fprintf(&b, "%d,plain%d,c%d,v\n", i, i, i%3)
		case 3:
			fmt.Fprintf(&b, "%d,,c%d,\"multi\n\nblank %d\"\n", i, i%3, i)
		default:
			fmt.Fprintf(&b, "%d,\"trailing\n\",c%d,x%d\n", i, i%3, i)
		}
	}
	return b.String()
}

func TestParallelReadCSVMatchesSequential(t *testing.T) {
	opts := CSVOptions{HasHeader: true, EmptyIsNull: true, NullLiteral: "NULL"}
	input := buildTrickyCSV(200)
	want, err := readCSVSequential("t", strings.NewReader(input), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 1, 2, 8} {
		parOpts := opts
		parOpts.Threads = threads
		got, err := ReadCSV("t", strings.NewReader(input), parOpts)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threads=%d: parallel parse differs from sequential", threads)
		}
	}
}

func TestParallelReadCSVSpansChunkBoundaries(t *testing.T) {
	// Enough data to guarantee several chunks (csvChunkSize = 256 KiB):
	// long quoted cells with newlines force boundaries to respect quotes.
	var b strings.Builder
	b.WriteString("a,b\n")
	long := strings.Repeat("x", 4096)
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%d,\"%s\n%s\"\n", i, long, long)
	}
	input := b.String()
	if len(input) < 2*csvChunkSize {
		t.Fatalf("input too small to span chunks: %d bytes", len(input))
	}
	seq, err := readCSVSequential("t", strings.NewReader(input), CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		par, err := ReadCSV("t", strings.NewReader(input), CSVOptions{HasHeader: true, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("threads=%d: chunk-spanning parse differs from sequential", threads)
		}
		if par.NumRows() != 300 {
			t.Fatalf("threads=%d: rows = %d, want 300", threads, par.NumRows())
		}
	}
}

// TestPlainChunksMatchSequential reads a quote-free input of at least
// eight full-size chunks with one quoted record in the middle, so that
// plain chunks, parsed by splitting, surround one chunk parsed by
// encoding/csv. Both thread counts must equal the sequential parse, and
// the rows cut from a chunk's arena must not share spare capacity.
func TestPlainChunksMatchSequential(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,cat,note,maybe\n")
	for i := 0; b.Len() < 9*csvChunkSize; i++ {
		switch {
		case i == 60000:
			fmt.Fprintf(&b, "%d,c%d,\"quoted, with a\nnewline\",x\n", i, i%7)
		case i%11 == 0:
			fmt.Fprintf(&b, "%d,c%d,,NULL\n", i, i%7)
		case i%13 == 0:
			b.WriteString("\n") // a blank line
			fmt.Fprintf(&b, "%d,c%d,n%d,v\n", i, i%7, i%100)
		default:
			fmt.Fprintf(&b, "%d,c%d,n%d,v\n", i, i%7, i%100)
		}
	}
	input := b.String()
	chunks := splitCSVChunks(input, csvChunkSize)
	quoted := 0
	for _, c := range chunks {
		if c.quoted {
			quoted++
		}
	}
	if len(chunks) < 8 || quoted != 1 || chunks[0].quoted || chunks[len(chunks)-1].quoted {
		t.Fatalf("%d chunks, %d quoted: want at least 8 with one quoted chunk in the middle", len(chunks), quoted)
	}
	opts := CSVOptions{HasHeader: true, EmptyIsNull: true, NullLiteral: "NULL"}
	want, err := readCSVSequential("t", strings.NewReader(input), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2} {
		opts.Threads = threads
		got, err := ReadCSV("t", strings.NewReader(input), opts)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threads=%d: chunked parse differs from sequential", threads)
		}
		for _, i := range []int{0, 1000, len(got.Rows) - 2} {
			next := append([]string(nil), got.Rows[i+1]...)
			_ = append(got.Rows[i], "x")
			if !reflect.DeepEqual(got.Rows[i+1], next) {
				t.Fatalf("threads=%d: appending to row %d changed row %d to %q", threads, i, i+1, got.Rows[i+1])
			}
		}
	}
}

func TestParallelReadCSVErrorsMatchSequential(t *testing.T) {
	cases := []string{
		"",                        // empty input
		"a,b\n1,2,3\n",            // arity mismatch
		"a,b\n1,\"unterminated\n", // quote running to EOF
		"a,b\n1,2\nx\"y,3\n",      // bare quote
		"a,a\n1,2\n",              // duplicate column names
		"a,\n1,2\n",               // empty column name
	}
	for _, input := range cases {
		opts := CSVOptions{HasHeader: true, EmptyIsNull: true}
		_, seqErr := readCSVSequential("t", strings.NewReader(input), opts)
		if seqErr == nil {
			t.Fatalf("input %q: sequential parser accepted a bad input", input)
		}
		for _, threads := range []int{1, 4} {
			opts.Threads = threads
			_, parErr := ReadCSV("t", strings.NewReader(input), opts)
			if parErr == nil {
				t.Fatalf("input %q, threads %d: chunked reader accepted what sequential rejects", input, threads)
			}
			if seqErr.Error() != parErr.Error() {
				t.Fatalf("input %q, threads %d: error mismatch:\nsequential: %v\nchunked:    %v", input, threads, seqErr, parErr)
			}
		}
	}
}

func BenchmarkReadCSVSequential(b *testing.B) {
	input := buildTrickyCSV(5000)
	opts := CSVOptions{HasHeader: true, EmptyIsNull: true, NullLiteral: "NULL", Threads: 1}
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV("t", strings.NewReader(input), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSVParallel(b *testing.B) {
	input := buildTrickyCSV(5000)
	opts := CSVOptions{HasHeader: true, EmptyIsNull: true, NullLiteral: "NULL", Threads: 8}
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV("t", strings.NewReader(input), opts); err != nil {
			b.Fatal(err)
		}
	}
}
