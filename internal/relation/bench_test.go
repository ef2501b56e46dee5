package relation_test

import (
	"bytes"
	"fmt"
	"testing"

	"hyfd/internal/datasets"
	"hyfd/internal/relation"
)

// readSink keeps the benchmarked relations live.
var readSink *relation.Relation

// BenchmarkReadCSV reads a 100,000-row analog of the long benchmark table
// (six columns: a key plus derived and hierarchy columns over domains of
// 500 to 20,000 values, 2 % noise) at 1 and 2 threads, with the options the
// benchmark's ops use.
func BenchmarkReadCSV(b *testing.B) {
	rel := datasets.GenProfile(100000, 6, 7, 1, 0.5, 0.3, 0.02, 0, 500, 20000, 0)
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	input := buf.Bytes()
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			opts := relation.CSVOptions{HasHeader: true, EmptyIsNull: true, Threads: threads}
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := relation.ReadCSV("lineitem", bytes.NewReader(input), opts)
				if err != nil {
					b.Fatal(err)
				}
				readSink = got
			}
		})
	}
}
